package engine

import (
	"testing"

	"parbw/internal/xrand"
)

// TestColsRNGMatchesEagerSplit is the contract that makes the lazy column
// safe: whatever order processors first touch their sources, every stream is
// byte-for-byte the eager root.Split(i) the machines used to materialize at
// construction.
func TestColsRNGMatchesEagerSplit(t *testing.T) {
	const p, seed = 64, 0xfeed
	cs := NewCols(p, seed)
	root := xrand.New(seed)

	// Touch in a scrambled order, interleaving draws, to prove derivation
	// order and parent state are immaterial.
	order := xrand.New(1).Perm(p)
	for _, i := range order {
		got := cs.RNG(i).Uint64()
		want := root.Split(uint64(i)).Uint64()
		if got != want {
			t.Fatalf("proc %d first draw = %#x, want eager split's %#x", i, got, want)
		}
	}
	// Second draws continue the same streams (pointers are stable).
	for i := 0; i < p; i++ {
		want := root.Split(uint64(i))
		want.Uint64()
		if got, w := cs.RNG(i).Uint64(), want.Uint64(); got != w {
			t.Fatalf("proc %d second draw = %#x, want %#x", i, got, w)
		}
	}
}
