// Package retry holds the retry discipline of the serve path: Policy, the
// one attempt loop that the sweep executor (internal/service), the owner
// side of a cluster forward and the cluster forwarding client
// (internal/cluster) all run, paced by exponential backoff with
// deterministic jitter, and a consecutive-failure circuit breaker. Both echo
// the paper's thesis — pace injections instead of hammering a collapsing
// resource (the f_m^u penalty regime): a dependency that just failed is
// "overloaded", so callers back off or route around it rather than piling
// on.
package retry

import (
	"context"
	"hash/fnv"
	"sync"
	"time"

	"parbw/internal/xrand"
)

// Breaker is a consecutive-failure circuit breaker. Closed: calls flow, and
// threshold consecutive failures open it. Open: calls are refused for
// cooldown. Half-open: after the cooldown one probe is allowed through at a
// time — success closes the breaker, failure re-opens it. A threshold <= 0
// disables the breaker entirely. All methods are safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	fails     int
	openUntil time.Time
	probing   bool
	opens     uint64
}

// NewBreaker builds a breaker that opens after threshold consecutive
// failures and stays open for cooldown. A threshold of 0 selects 3 and a
// cooldown <= 0 selects 5s; a threshold < 0 disables the breaker.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold == 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a call should be attempted now. A true return in
// the half-open state claims the probe slot; the caller must follow up
// with Success or Failure.
func (b *Breaker) Allow(now time.Time) bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.threshold {
		return true
	}
	if now.Before(b.openUntil) {
		return false
	}
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// Success records a successful call, closing the breaker.
func (b *Breaker) Success() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
}

// Failure records a failed call; at threshold consecutive failures the
// breaker (re-)opens for cooldown.
func (b *Breaker) Failure(now time.Time) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	b.fails++
	if b.fails >= b.threshold {
		if !now.Before(b.openUntil) {
			b.opens++ // closed (or half-open) → open transition
		}
		b.openUntil = now.Add(b.cooldown)
	}
}

// Open reports whether calls are currently being refused.
func (b *Breaker) Open(now time.Time) bool {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails >= b.threshold && now.Before(b.openUntil)
}

// Opens returns how many closed→open (or half-open→open) transitions have
// happened.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// State renders the breaker's position for observability surfaces:
// "disabled", "closed", "open", or "half-open".
func (b *Breaker) State(now time.Time) string {
	if b.threshold <= 0 {
		return "disabled"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.fails < b.threshold:
		return "closed"
	case now.Before(b.openUntil):
		return "open"
	default:
		return "half-open"
	}
}

// backoffSeed fixes the jitter stream. Jitter must be deterministic (chaos
// runs replay bit-identically) yet decorrelated across keys and attempts,
// so the stream is split by key and attempt rather than seeded per process.
const backoffSeed = 0x9e3779b97f4a7c15

// BackoffDelay returns the pause before retry `attempt` (attempts are
// 1-based; the first retry is attempt 2): base·2^(attempt−2) scaled by a
// deterministic jitter factor in [0.5, 1.5) drawn from (key, attempt), and
// capped at max. Jitter prevents a failed sweep's tasks from re-hammering
// a struggling dependency in lockstep — the same collision-collapse the
// paper's schedulers exist to avoid.
func BackoffDelay(base, max time.Duration, key string, attempt int) time.Duration {
	if base <= 0 || attempt < 2 {
		return 0
	}
	d := base
	for i := 2; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	src := xrand.New(backoffSeed).Split(h.Sum64()).Split(uint64(attempt))
	d = time.Duration(float64(d) * (0.5 + src.Float64()))
	if d > max {
		d = max
	}
	return d
}

// maxBackoff caps every pause Policy.Do takes between attempts.
const maxBackoff = 2 * time.Second

// Policy is the one attempt loop: a failed attempt is retried up to Retries
// times, each retry paced by BackoffDelay. The zero value is the serve
// path's default discipline.
type Policy struct {
	// Retries is the number of extra attempts after a failure; 0 → 2,
	// < 0 → 0.
	Retries int
	// Backoff is the pause before the first retry, doubling per retry with
	// deterministic per-(key, attempt) jitter, capped at 2s; 0 → 50ms,
	// < 0 → no pause.
	Backoff time.Duration
}

// stopError marks a failure that a retry cannot fix.
type stopError struct{ err error }

func (e stopError) Error() string { return e.err.Error() }
func (e stopError) Unwrap() error { return e.err }

// Stop marks err as final: Do returns it, unwrapped, without another
// attempt. Stop(nil) is nil.
func Stop(err error) error {
	if err == nil {
		return nil
	}
	return stopError{err}
}

// Do calls attempt with n = 1, 2, … until it returns nil, returns an error
// marked by Stop, or the retries run out; it returns the last attempt's
// error. Before each retry it pauses BackoffDelay(Backoff, 2s, key, n). Once
// ctx is done it makes no further attempt and returns ctx.Err() itself, so a
// caller tells "ctx ended the loop" apart from "the attempts failed" with
// err == ctx.Err().
func (p Policy) Do(ctx context.Context, key string, attempt func(n int) error) error {
	retries, backoff := p.Retries, p.Backoff
	if retries < 0 {
		retries = 0
	} else if retries == 0 {
		retries = 2
	}
	if backoff == 0 {
		backoff = 50 * time.Millisecond
	}
	var err error
	for n := 1; n <= 1+retries; n++ {
		if d := BackoffDelay(backoff, maxBackoff, key, n); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = attempt(n); err == nil {
			return nil
		}
		if stop, ok := err.(stopError); ok {
			return stop.err
		}
	}
	return err
}
