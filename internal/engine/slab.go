package engine

// This file is the pooled-slab / radix-bucket routing layer of the engine:
// engine-owned freelists (deliberately not sync.Pool — recycling must be
// deterministic and visible to the allocation budget, and a superstep core
// is driven from a single goroutine) plus the scratch buffers the
// counting-sort message router needs. The merge strategies in
// internal/bsp and internal/qsm build per-destination buckets by counting
// and prefix-summing into a single recycled slab instead of appending into
// per-destination slices through a map or a ragged [][]T, which is where
// the pre-rework merge spent most of its time.

// Slab is a capacity-recycling buffer of T. Take returns a slice of the
// requested length backed by the slab's memory, growing it only when the
// request exceeds the retained capacity; in steady state (stable per-step
// sizes) Take never allocates. Contents of the returned slice are
// unspecified — callers overwrite every element. The returned slice is
// valid until the next Take.
//
// Capacity also decays: one adversarial superstep must not pin its peak for
// the machine's lifetime, so after slabDecayAfter consecutive Takes using
// under a quarter of the retained capacity the slab shrinks to twice the
// latest demand. A workload that oscillates near its capacity never decays
// (any Take at >= 25% utilization resets the streak), so steady-state
// supersteps stay allocation-free.
//
// A Slab is owned by one machine and must not be shared across goroutines.
type Slab[T any] struct {
	buf []T
	low int // consecutive Takes under 25% of capacity
}

// slabDecayAfter is the length of the low-utilization streak that triggers
// a shrink.
const slabDecayAfter = 32

// Take returns a slice of length n, reusing the slab's capacity.
func (s *Slab[T]) Take(n int) []T {
	switch c := cap(s.buf); {
	case c < n:
		// Grow with headroom so a slowly-growing workload does not
		// reallocate every step.
		nc := 2 * c
		if nc < n {
			nc = n
		}
		s.buf = make([]T, nc)
		s.low = 0
	case n*4 < c:
		if s.low++; s.low >= slabDecayAfter {
			s.buf = make([]T, 2*n)
			s.low = 0
		}
	default:
		s.low = 0
	}
	s.buf = s.buf[:n]
	return s.buf
}

// Cap returns the retained capacity.
func (s *Slab[T]) Cap() int { return cap(s.buf) }

// Offsets returns a second recycled length-P zeroed int buffer, distinct
// from Ledger. The counting-sort router uses Ledger for per-destination
// flit totals and Offsets for per-destination message counts that are then
// prefix-summed in place into placement cursors. Valid until the next call.
func (c *Core[S]) Offsets() []int {
	if c.offsets == nil {
		c.offsets = make([]int, c.p)
	}
	for i := range c.offsets {
		c.offsets[i] = 0
	}
	return c.offsets
}
