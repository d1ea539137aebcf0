package engine

import (
	"sync"
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

// TestColsRNGConcurrentFirstUse exercises the lazy-allocation path from many
// goroutines at once (run under -race in CI): the column alloc is Once-guarded
// and each entry is only touched by its own processor's goroutine.
func TestColsRNGConcurrentFirstUse(t *testing.T) {
	const p = 128
	cs := NewCols(p, 7)
	got := make([]uint64, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = cs.RNG(i).Uint64()
		}(i)
	}
	wg.Wait()
	root := xrand.New(7)
	for i := 0; i < p; i++ {
		if want := root.Split(uint64(i)).Uint64(); got[i] != want {
			t.Fatalf("proc %d concurrent first draw = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestColsResetProc(t *testing.T) {
	cs := NewCols(4, 0)
	cs.Work[2] = 9
	cs.AutoSlot[2] = 3
	cs.Off[2] = 7
	cs.Cnt[2] = 5
	cs.ResetProc(2)
	if cs.Work[2] != 0 || cs.AutoSlot[2] != 0 {
		t.Fatalf("ResetProc left counters: %+v", cs)
	}
	// Off/Cnt are queue bookkeeping owned by the machine body, not ResetProc.
	if cs.Off[2] != 7 || cs.Cnt[2] != 5 {
		t.Fatal("ResetProc must not touch Off/Cnt")
	}
}
