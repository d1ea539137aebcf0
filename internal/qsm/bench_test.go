package qsm

import (
	"fmt"
	"testing"

	"parbw/internal/model"
)

// benchMachine builds a machine plus a representative phase program: every
// processor reads from the low half of memory and writes its private cell in
// the high half (QSM forbids reading and writing the same location in one
// phase). The program closure is hoisted so that per-call
// closure allocation does not mask the machine's own behavior.
func benchMachine(p int) (*Machine, func() Stats) {
	m := New(Config{P: p, Mem: 2 * p, Cost: model.QSMm(32), Seed: 1})
	body := func(c *Ctx) {
		c.Charge(4)
		c.Read((c.ID() + 1) % p)
		c.Write(p+c.ID(), int64(c.ID()))
	}
	return m, func() Stats { return m.Phase(body) }
}

func BenchmarkSuperstepMerge(b *testing.B) {
	_, step := benchMachine(256)
	step() // warm the recycled buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// The merge path recycles its histogram and contention scratch; after warmup
// a phase must not allocate at all.
const phaseAllocBudget = 0

func TestSuperstepMergeAllocs(t *testing.T) {
	_, step := benchMachine(256)
	step() // warm the recycled buffers
	avg := testing.AllocsPerRun(50, func() { step() })
	if avg > phaseAllocBudget {
		t.Errorf("phase allocates %.1f objects/op, budget %d", avg, phaseAllocBudget)
	}
}

// The benchmark workload's model outcome is pinned: a change to the merge
// or the cost formulas moves this string even when the timing does not.
func TestSuperstepFingerprint(t *testing.T) {
	_, step := benchMachine(256)
	step()
	step()
	st := step()
	if got, want := fmt.Sprintf("cost=%g reads=%d writes=%d kappa=%d", st.Cost, st.Reads, st.Writes, st.Kappa), "cost=2193.266316856917 reads=256 writes=256 kappa=1"; got != want {
		t.Errorf("benchMachine(256) fingerprint %q, want %q", got, want)
	}
}
