// Package workpool provides a bounded parallel-for used by the machine
// engines to run the per-processor programs of a superstep, and by the run
// service and the fuzzer to fan out independent tasks, on real CPU cores.
//
// For, ForCtx and ForChunks share one loop: the caller and up to workers-1
// helper goroutines claim indices in increasing order from one atomic
// counter, so a costly index holds up only the worker running it. ForChunks
// claims whole contiguous chunks whose boundaries (Chunks) depend only on n
// and the worker count, so callers can size per-chunk state from them.
//
// A panic in fn stops further claims; every index already claimed runs to
// completion, then the panic value of the lowest panicking index is
// re-raised on the caller. Claims are made in increasing order, so that is
// exactly the panic a serial run raises first, at any worker count.
package workpool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool runs parallel-for loops with a fixed worker count. The zero value is
// not usable; construct with New. Pool is safe for concurrent use.
type Pool struct {
	workers int
}

// New returns a pool with the given worker count; workers <= 0 selects
// GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Chunks reports the contiguous chunking ForChunks uses for n items: the
// chunk width and the number of chunks. Chunk r covers
// [r·width, min((r+1)·width, n)).
func (p *Pool) Chunks(n int) (width, chunks int) {
	if n <= 0 {
		return 0, 0
	}
	width = (n + p.workers - 1) / p.workers
	return width, (n + width - 1) / width
}

// For invokes fn(i) for every i in [0, n) and returns after all calls have
// completed. fn must be safe to call concurrently for distinct i.
func (p *Pool) For(n int, fn func(i int)) {
	p.run(spec{n: n, width: 1, fn: fn})
}

// ForCtx is For with cancellation: once ctx is done, no further index is
// claimed and the call drains promptly. In-flight fn calls are never
// interrupted — fn itself must watch ctx if single calls are long — so at
// most one call per worker completes after cancellation. Returns ctx.Err()
// if the loop was cut short, nil if every index ran.
func (p *Pool) ForCtx(ctx context.Context, n int, fn func(i int)) error {
	p.run(spec{n: n, width: 1, done: ctx.Done(), fn: fn})
	return ctx.Err()
}

// ForChunks invokes fn(lo, hi) once per chunk that Chunks(n) reports, so
// the caller can amortize per-chunk setup (e.g. scratch picked by lo/width).
func (p *Pool) ForChunks(n int, fn func(lo, hi int)) {
	width, _ := p.Chunks(n)
	p.run(spec{n: n, width: width, chunk: fn})
}

// spec is one call: claim i covers [i·width, min((i+1)·width, n)) and runs
// chunk on it, or fn(i) when chunk is nil (width is then 1).
type spec struct {
	n     int
	width int
	done  <-chan struct{} // claims stop once closed; nil never closes
	fn    func(i int)
	chunk func(lo, hi int)
}

// loop is the claim counter of one call, shared by the caller and helpers.
type loop struct {
	spec
	next atomic.Int64 // the next claim; set to n once a claim panics
}

// team is a loop with helpers: it waits for them and keeps the lowest panic.
type team struct {
	loop
	wg   sync.WaitGroup // helpers still claiming
	mu   sync.Mutex     // guards pidx and pval
	pidx int
	pval any
}

// run drives s to completion on the caller and up to workers-1 helpers,
// then re-raises the lowest claim's panic, if any. Without helpers the loop
// stays on the caller's stack, so a serial call allocates nothing.
func (p *Pool) run(s spec) {
	if s.n <= 0 {
		return
	}
	helpers := min(p.workers, (s.n+s.width-1)/s.width) - 1
	if helpers == 0 {
		l := loop{spec: s}
		if _, v := l.work(); v != nil {
			panic(v)
		}
		return
	}
	t := &team{loop: loop{spec: s}}
	t.wg.Add(helpers)
	for range helpers {
		go t.help()
	}
	t.record(t.work())
	t.wg.Wait()
	if t.pval != nil {
		panic(t.pval)
	}
}

func (t *team) help() {
	defer t.wg.Done()
	t.record(t.work())
}

func (t *team) record(i int, v any) {
	if v == nil {
		return
	}
	t.mu.Lock()
	if t.pval == nil || i < t.pidx {
		t.pidx, t.pval = i, v
	}
	t.mu.Unlock()
}

// work runs claims until none remain, the done channel closes, or a claim
// panics. It recovers that panic, stops every worker's further claims, and
// returns the claim with the panic value; v is nil if nothing panicked.
func (l *loop) work() (i int, v any) {
	defer func() {
		if v = recover(); v != nil {
			l.next.Store(int64(l.n))
		}
	}()
	for {
		select {
		case <-l.done:
			return
		default:
		}
		i = int(l.next.Add(1) - 1)
		lo := i * l.width
		if lo >= l.n {
			return
		}
		if l.chunk == nil {
			l.fn(i)
		} else {
			l.chunk(lo, min(lo+l.width, l.n))
		}
	}
}
