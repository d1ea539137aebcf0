package engine

// This file is the columnar per-processor state layer of the engine. The
// machines used to keep one object per simulated processor (a Ctx struct
// holding its own send slice, its own eagerly-materialized RNG, its own
// counters), which put an O(p)-objects floor under memory and allocation
// count and capped practical machine sizes around tens of thousands of
// processors. Cols replaces that with struct-of-arrays slabs: one flat
// column per field, indexed by processor id, so a million-processor machine
// is a handful of large allocations instead of millions of small ones. The
// machines' Ctx types become thin index-plus-pointer views over these
// columns; the queued per-processor work itself (sends, requests, accesses)
// lives in one arena per machine, addressed by the Off/Cnt columns.

import (
	"sync"

	"parbw/internal/xrand"
)

// Cols holds the per-processor engine state shared by every machine as
// parallel flat arrays indexed by processor id. A processor's columns are
// reset by the machine's body just before its program runs, so a superstep
// touches each processor's state once and never allocates.
//
// The RNG column is lazy: constructing a Cols records only the root seed
// state, and a processor's source is derived on its first RNG call —
// byte-for-byte identical to the eager root.Split(i) the machines used to
// run at construction (Split does not advance the parent, so derivation
// order is immaterial). A machine whose programs never draw randomness pays
// nothing for p sources.
type Cols struct {
	Work     []int   // local work charged this step
	AutoSlot []int   // next free auto-assigned injection/request slot
	Off      []int32 // start of the processor's queued run in the machine's arena
	Cnt      []int32 // number of queued items in the run

	root    xrand.Source
	rngOnce sync.Once
	rng     []xrand.Source
	rngInit []bool
}

// NewCols allocates the columns for p processors. seed is the machine seed
// every per-processor RNG derives from.
func NewCols(p int, seed uint64) *Cols {
	return &Cols{
		Work:     make([]int, p),
		AutoSlot: make([]int, p),
		Off:      make([]int32, p),
		Cnt:      make([]int32, p),
		root:     *xrand.New(seed),
	}
}

// ResetProc zeroes processor i's per-step counters for a new superstep. It
// is called from the machine's body before the processor's program runs.
// Off and Cnt are queue bookkeeping the machine sets itself (Off is the
// arena cursor at the moment the program starts, not zero).
func (cs *Cols) ResetProc(i int) {
	cs.Work[i] = 0
	cs.AutoSlot[i] = 0
}

// allocRNG materializes the RNG columns on first use.
func (cs *Cols) allocRNG() {
	cs.rng = make([]xrand.Source, len(cs.Work))
	cs.rngInit = make([]bool, len(cs.Work))
}

// RNG returns processor i's private deterministic source, deriving it from
// the root seed on first use. The returned pointer is stable for the life of
// the machine and the source's state persists across supersteps, exactly as
// the eagerly-split sources did. Safe to call concurrently for distinct i
// (entry i is only ever touched by the goroutine running processor i).
func (cs *Cols) RNG(i int) *xrand.Source {
	cs.rngOnce.Do(cs.allocRNG)
	if !cs.rngInit[i] {
		cs.root.SplitInto(uint64(i), &cs.rng[i])
		cs.rngInit[i] = true
	}
	return &cs.rng[i]
}
