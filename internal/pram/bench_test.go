package pram

import (
	"fmt"
	"testing"
)

// benchMachine builds a machine plus a representative lock-step program
// (every processor reads one cell and writes a private cell). The program
// closure is hoisted so that per-call closure allocation does not mask the
// machine's own allocation behavior.
func benchMachine(p int) (*Machine, func() Stats) {
	m := New(Config{P: p, Mem: 2 * p, Mode: QRQW, Seed: 1})
	body := func(c *Ctx) {
		v := c.Read((c.ID() + 1) % p)
		c.Write(p+c.ID(), v+1)
	}
	return m, func() Stats { return m.Step(body) }
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

// The commit path recycles its access list and per-cell scratch; after
// warmup a step must not allocate at all.
const stepAllocBudget = 0

func TestSuperstepMergeAllocs(t *testing.T) {
	_, step := benchMachine(256)
	step() // warm the recycled buffers
	avg := testing.AllocsPerRun(50, func() { step() })
	if avg > stepAllocBudget {
		t.Errorf("step allocates %.1f objects/op, budget %d", avg, stepAllocBudget)
	}
}

// The benchmark workload's model outcome is pinned: a change to the merge
// or the cost formulas moves this string even when the timing does not.
func TestSuperstepFingerprint(t *testing.T) {
	_, step := benchMachine(256)
	step()
	step()
	st := step()
	if got, want := fmt.Sprintf("cost=%g reads=%d writes=%d", st.Cost, st.Reads, st.Writes), "cost=1 reads=256 writes=256"; got != want {
		t.Errorf("benchMachine(256) fingerprint %q, want %q", got, want)
	}
}
