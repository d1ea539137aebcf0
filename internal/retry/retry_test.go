package retry

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(2, time.Minute)
	t0 := time.Unix(1000, 0)

	if !b.Allow(t0) {
		t.Fatal("fresh breaker not closed")
	}
	if got := b.State(t0); got != "closed" {
		t.Fatalf("state = %q, want closed", got)
	}
	b.Failure(t0)
	if !b.Allow(t0) || b.Open(t0) {
		t.Fatal("one failure below threshold opened the breaker")
	}
	b.Failure(t0)
	if b.Allow(t0) || !b.Open(t0) {
		t.Fatal("threshold failures did not open the breaker")
	}
	if got := b.State(t0); got != "open" {
		t.Fatalf("state = %q, want open", got)
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", b.Opens())
	}

	// Half-open after the cooldown: exactly one probe is allowed.
	t1 := t0.Add(2 * time.Minute)
	if got := b.State(t1); got != "half-open" {
		t.Fatalf("state = %q, want half-open", got)
	}
	if !b.Allow(t1) {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow(t1) {
		t.Fatal("second concurrent probe allowed")
	}
	// Probe failure re-opens (a second distinct open).
	b.Failure(t1)
	if b.Allow(t1.Add(time.Second)) {
		t.Fatal("failed probe did not re-open")
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
	// Probe success closes fully.
	t2 := t1.Add(2 * time.Minute)
	if !b.Allow(t2) {
		t.Fatal("probe refused after second cooldown")
	}
	b.Success()
	if !b.Allow(t2) || b.Open(t2) {
		t.Fatal("successful probe did not close the breaker")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(-1, time.Minute)
	now := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		b.Failure(now)
	}
	if !b.Allow(now) || b.Open(now) || b.Opens() != 0 {
		t.Fatal("disabled breaker tripped")
	}
	if got := b.State(now); got != "disabled" {
		t.Fatalf("state = %q, want disabled", got)
	}
}

// The half-open probe slot is exclusive even under concurrent Allow callers:
// exactly one goroutine is admitted, everyone else is refused. Run under
// -race by the chaos targets.
func TestBreakerHalfOpenSingleProbeConcurrent(t *testing.T) {
	b := NewBreaker(1, time.Millisecond)
	t0 := time.Unix(1000, 0)
	b.Failure(t0) // open
	probeAt := t0.Add(time.Second)

	for round := 0; round < 50; round++ {
		var admitted atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if b.Allow(probeAt) {
					admitted.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := admitted.Load(); n != 1 {
			t.Fatalf("round %d: %d probes admitted, want exactly 1", round, n)
		}
		// Fail the probe: the breaker re-opens, then the cooldown expires
		// again before the next round's probe time.
		b.Failure(probeAt)
		probeAt = probeAt.Add(time.Second)
	}
}

func TestBackoffDelayDeterministicAndBounded(t *testing.T) {
	base, max := 50*time.Millisecond, 2*time.Second
	key := "deadbeef"
	for attempt := 2; attempt <= 8; attempt++ {
		d1 := BackoffDelay(base, max, key, attempt)
		d2 := BackoffDelay(base, max, key, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: nondeterministic delay %s vs %s", attempt, d1, d2)
		}
		raw := base << (attempt - 2)
		if raw > max {
			raw = max
		}
		if d1 < raw/2 || d1 > max {
			t.Fatalf("attempt %d: delay %s outside [%s, %s]", attempt, d1, raw/2, max)
		}
	}
	// Exponential shape: the un-capped raw window doubles per attempt, so
	// the jittered delay at attempt 5 must exceed attempt 2's window.
	if d := BackoffDelay(base, max, key, 5); d <= base+base/2 {
		t.Fatalf("attempt 5 delay %s not exponentially larger than base", d)
	}
	// Distinct keys de-correlate.
	if BackoffDelay(base, max, "aaaa", 3) == BackoffDelay(base, max, "bbbb", 3) &&
		BackoffDelay(base, max, "aaaa", 4) == BackoffDelay(base, max, "bbbb", 4) {
		t.Fatal("jitter identical across keys at two attempts")
	}
	// No backoff before the first retry, or when disabled.
	if BackoffDelay(base, max, key, 1) != 0 || BackoffDelay(-1, max, key, 3) != 0 {
		t.Fatal("expected zero delay")
	}
}

// countAttempts runs p.Do with an attempt that always fails and returns how
// many attempts it made.
func countAttempts(p Policy) int {
	n := 0
	p.Do(context.Background(), "k", func(int) error {
		n++
		return errors.New("boom")
	})
	return n
}

func TestPolicyAttempts(t *testing.T) {
	for _, tc := range []struct {
		retries, want int
	}{
		{-1, 1},
		{0, 3}, // the default: 2 retries
		{2, 3},
	} {
		if got := countAttempts(Policy{Retries: tc.retries, Backoff: -1}); got != tc.want {
			t.Errorf("Retries %d: %d attempts, want %d", tc.retries, got, tc.want)
		}
	}
	// Attempts are numbered from 1 and the first success ends the loop.
	var seen []int
	err := Policy{Backoff: -1}.Do(context.Background(), "k", func(n int) error {
		seen = append(seen, n)
		if n < 2 {
			return errors.New("boom")
		}
		return nil
	})
	if err != nil || len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("err %v, attempts %v; want success on attempt 2", err, seen)
	}
}

func TestPolicyStopEndsLoopUnwrapped(t *testing.T) {
	final := errors.New("cannot encode")
	n := 0
	err := Policy{Retries: 5, Backoff: -1}.Do(context.Background(), "k", func(int) error {
		n++
		return Stop(final)
	})
	if n != 1 || err != final {
		t.Fatalf("%d attempts, err %v; want 1 attempt returning the unwrapped error", n, err)
	}
	if Stop(nil) != nil {
		t.Fatal("Stop(nil) != nil")
	}
}

func TestPolicyDoneContextMakesNoAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	err := Policy{}.Do(ctx, "k", func(int) error {
		n++
		return nil
	})
	if n != 0 || err != ctx.Err() {
		t.Fatalf("%d attempts, err %v; want none and ctx.Err()", n, err)
	}

	// A context that ends during the backoff pause cuts the pause short and
	// ends the loop without another attempt.
	ctx, cancel = context.WithCancel(context.Background())
	n = 0
	start := time.Now()
	err = Policy{Retries: 3, Backoff: time.Hour}.Do(ctx, "k", func(int) error {
		n++
		cancel()
		return errors.New("boom")
	})
	if n != 1 || err != context.Canceled {
		t.Fatalf("%d attempts, err %v; want 1 and context.Canceled", n, err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancelled pause took %s", d)
	}
}

func TestPolicyNegativeBackoffNeverSleeps(t *testing.T) {
	// 20 retries at the default pacing would pause for well over 10s (all
	// but the first few pauses sit at the 2s cap).
	start := time.Now()
	if n := countAttempts(Policy{Retries: 20, Backoff: -1}); n != 21 {
		t.Fatalf("%d attempts, want 21", n)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Backoff -1 loop took %s; it must not pause", d)
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker(0, 0) // threshold 3, cooldown 5s
	t0 := time.Unix(1000, 0)
	b.Failure(t0)
	b.Failure(t0)
	if b.Open(t0) {
		t.Fatal("default breaker opened after 2 failures")
	}
	b.Failure(t0)
	if !b.Open(t0) || !b.Open(t0.Add(4*time.Second)) || b.Open(t0.Add(5*time.Second)) {
		t.Fatal("default breaker did not open for 5s after 3 failures")
	}
}
