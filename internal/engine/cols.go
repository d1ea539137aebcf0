package engine

// This file is the per-processor state the engine keeps for every machine:
// each processor's private random source, as one flat column indexed by
// processor id. Everything else a processor does in a superstep lives on the
// machine's one Ctx (scalars reset before each program) or in the machine's
// arena of queued work, so a million-processor machine is a handful of large
// allocations instead of millions of small ones.

import "parbw/internal/xrand"

// Cols holds the per-processor random sources of a p-processor machine.
//
// The column is lazy: constructing a Cols records only the root seed state,
// and a processor's source is derived on its first RNG call — byte-for-byte
// identical to the eager root.Split(i) the machines used to run at
// construction (Split does not advance the parent, so derivation order is
// immaterial). A machine whose programs never draw randomness pays nothing
// for p sources.
//
// A Cols belongs to one machine and is used only from that machine's driver
// goroutine.
type Cols struct {
	p       int
	root    xrand.Source
	rng     []xrand.Source
	rngInit []bool
}

// NewCols prepares the columns for p processors. seed is the machine seed
// every per-processor RNG derives from.
func NewCols(p int, seed uint64) *Cols {
	return &Cols{p: p, root: *xrand.New(seed)}
}

// RNG returns processor i's private deterministic source, deriving it from
// the root seed on first use. The returned pointer is stable for the life of
// the machine and the source's state persists across supersteps, exactly as
// the eagerly-split sources did.
func (cs *Cols) RNG(i int) *xrand.Source {
	if cs.rng == nil {
		cs.rng = make([]xrand.Source, cs.p)
		cs.rngInit = make([]bool, cs.p)
	}
	if !cs.rngInit[i] {
		cs.root.SplitInto(uint64(i), &cs.rng[i])
		cs.rngInit[i] = true
	}
	return &cs.rng[i]
}
