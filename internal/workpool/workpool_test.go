package workpool

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCtxCoversAllWithoutCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		const n = 500
		var hits [n]int32
		if err := p.ForCtx(context.Background(), n, func(i int) { atomic.AddInt32(&hits[i], 1) }); err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

// Cancellation must drain promptly: with many slow items queued, cancelling
// mid-flight stops dispatch after at most one in-flight item per worker
// rather than running out the full index space.
func TestForCtxCancellationDrainsPromptly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		ctx, cancel := context.WithCancel(context.Background())
		const n = 10000
		var started int32
		release := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- p.ForCtx(ctx, n, func(i int) {
				if atomic.AddInt32(&started, 1) <= int32(workers) {
					<-release // hold the first wave until cancel lands
				}
			})
		}()
		for atomic.LoadInt32(&started) < int32(workers) {
			time.Sleep(time.Millisecond)
		}
		cancel()
		close(release)
		var err error
		select {
		case err = <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: ForCtx did not drain after cancellation", workers)
		}
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// At most the in-flight wave (one per worker) may complete after
		// cancel; everything else must have been skipped.
		if s := atomic.LoadInt32(&started); s > int32(2*workers) {
			t.Fatalf("workers=%d: %d items started after cancellation, want <= %d", workers, s, 2*workers)
		}
	}
}

func TestForCtxPreCancelled(t *testing.T) {
	p := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := int32(0)
	if err := p.ForCtx(ctx, 100, func(i int) { atomic.AddInt32(&called, 1) }); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called != 0 {
		t.Fatalf("%d calls despite pre-cancelled context", called)
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		p := New(workers)
		const n = 1000
		var hits [n]int32
		p.For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	p := New(4)
	called := false
	p.For(0, func(i int) { called = true })
	p.For(-5, func(i int) { called = true })
	if called {
		t.Fatal("For called fn for non-positive n")
	}
}

func TestForFewerItemsThanWorkers(t *testing.T) {
	p := New(64)
	var count int32
	p.For(3, func(i int) { atomic.AddInt32(&count, 1) })
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) produced < 1 worker")
	}
	if New(-1).Workers() < 1 {
		t.Fatal("New(-1) produced < 1 worker")
	}
	if New(5).Workers() != 5 {
		t.Fatal("New(5) did not keep worker count")
	}
}

// Indices are claimed dynamically: with two workers, fn(0) may block until
// every other index has run, because the other worker keeps claiming. A
// fixed contiguous split would hand half the indices to the blocked worker
// and never finish.
func TestForCtxDynamicDispatch(t *testing.T) {
	const n = 100
	var ran atomic.Int32
	rest := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- New(2).ForCtx(context.Background(), n, func(i int) {
			if i == 0 {
				<-rest
			} else if ran.Add(1) == n-1 {
				close(rest)
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fn(0) never saw the other indices run: dispatch is not dynamic")
	}
}

// A panic in fn reaches the caller at every worker count: with elements 3
// and 7 panicking, the caller recovers element 3's value — the panic a
// serial run raises first — even when element 7 panics earlier in time, and
// only after every claimed call has returned.
func TestPanicReachesCaller(t *testing.T) {
	const n = 8
	entries := map[string]func(p *Pool, fn func(i int)){
		"For": func(p *Pool, fn func(i int)) { p.For(n, fn) },
		"ForCtx": func(p *Pool, fn func(i int)) {
			_ = p.ForCtx(context.Background(), n, fn)
		},
	}
	for name, entry := range entries {
		for _, workers := range []int{1, 2, 4} {
			var started, finished atomic.Int32
			sevenPanicked := make(chan struct{})
			fn := func(i int) {
				started.Add(1)
				defer finished.Add(1)
				switch i {
				case 3:
					if workers > 1 {
						<-sevenPanicked
						time.Sleep(10 * time.Millisecond)
					}
					panic("three")
				case 7:
					close(sevenPanicked)
					panic("seven")
				}
			}
			got := make(chan any, 1)
			go func() {
				defer func() {
					if finished.Load() != started.Load() {
						got <- "claimed calls still running at re-panic"
						return
					}
					got <- recover()
				}()
				entry(New(workers), fn)
			}()
			select {
			case v := <-got:
				if v != "three" {
					t.Errorf("%s workers=%d: recovered %v, want three", name, workers, v)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s workers=%d: call did not return", name, workers)
			}
		}
	}
}

// A serial call keeps its loop on the caller's stack.
func TestSerialCallsDoNotAllocate(t *testing.T) {
	p := New(1)
	fn := func(int) {}
	if a := testing.AllocsPerRun(100, func() { p.For(100, fn) }); a != 0 {
		t.Fatalf("serial For allocated %v times per call", a)
	}
}
