package bsp

import (
	"fmt"
	"testing"

	"parbw/internal/model"
)

// benchMachine builds a machine plus a representative communication
// superstep: every processor sends two single-flit messages on
// its auto-assigned injection slots.
func benchMachine(p int) (*Machine, func() Stats) {
	m := New(Config{P: p, Cost: model.BSPm(32, 4), Seed: 1})
	body := func(c *Ctx) {
		c.Charge(4)
		c.Send((c.ID()+1)%p, 1, int64(c.ID()))
		c.Send((c.ID()+7)%p, 2, int64(c.ID()))
	}
	return m, func() Stats { return m.Superstep(body) }
}

// scaleMachine builds a p-processor BSP(g) machine whose program sends one
// single-flit neighbor message per processor: the p-scaling workload, which
// measures the per-processor engine overhead (columnar resets, arena
// appends, counting-sort routing).
func scaleMachine(p int) (*Machine, func() Stats) {
	m := New(Config{P: p, Cost: model.BSPg(4, 16), Seed: 1})
	body := func(c *Ctx) {
		i := c.ID()
		c.Send((i+1)%p, 1, int64(i))
	}
	return m, func() Stats { return m.Superstep(body) }
}

// scaleSizes are the machine sizes of the p-scaling workload, each with the
// pinned fingerprint of its third superstep. Dividing a size's ns/op by its
// p gives the per-processor superstep overhead.
var scaleSizes = []struct {
	name  string
	p     int
	model string
}{
	{"p=10k", 10_000, "p=10000 cost=16 n=10000 h=1 maxslot=10000"},
	{"p=100k", 100_000, "p=100000 cost=16 n=100000 h=1 maxslot=100000"},
	{"p=1m", 1 << 20, "p=1048576 cost=16 n=1048576 h=1 maxslot=1048576"},
}

// fingerprint is a step's model outcome: simulated cost and traffic only,
// never wall clock.
func fingerprint(st Stats) string {
	return fmt.Sprintf("cost=%g n=%d h=%d maxslot=%d", st.Cost, st.N, st.H, st.MaxSlot)
}

// thirdStep returns the Stats of a fresh machine's third superstep, by
// which both halves of the double-buffered inbox slab are in use.
func thirdStep(step func() Stats) Stats {
	step()
	step()
	return step()
}

func BenchmarkSuperstepMerge(b *testing.B) {
	_, step := benchMachine(256)
	step() // warm both halves of the double-buffered inbox slab
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkSuperstepScale(b *testing.B) {
	for _, sz := range scaleSizes {
		b.Run(sz.name, func(b *testing.B) {
			_, step := scaleMachine(sz.p)
			step() // warm both halves of the double-buffered inbox slab
			step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// The merge path recycles its histogram, receive ledger and inbox buffers;
// after warmup a superstep must not allocate at all.
const superstepAllocBudget = 0

func TestSuperstepMergeAllocs(t *testing.T) {
	_, step := benchMachine(256)
	step() // warm the recycled buffers
	avg := testing.AllocsPerRun(50, func() { step() })
	if avg > superstepAllocBudget {
		t.Errorf("superstep allocates %.1f objects/op, budget %d", avg, superstepAllocBudget)
	}
}

// The columnar engine's per-processor state is flat columns plus one send
// arena, so the p-scaling superstep is allocation-free at any p; p=10k and
// 100k check it without the 2^20 machine's ~100 MB.
func TestSuperstepScaleAllocs(t *testing.T) {
	for _, sz := range scaleSizes[:2] {
		_, step := scaleMachine(sz.p)
		step() // warm both halves of the double-buffered inbox slab
		step()
		avg := testing.AllocsPerRun(5, func() { step() })
		if avg > superstepAllocBudget {
			t.Errorf("%s: superstep allocates %.1f objects/op, budget %d", sz.name, avg, superstepAllocBudget)
		}
	}
}

// The benchmark workloads' model outcomes are pinned: a change to routing,
// slot assignment or the cost formulas moves one of these strings even when
// the benchmark's timing does not.
func TestSuperstepFingerprint(t *testing.T) {
	_, step := benchMachine(256)
	if got, want := fingerprint(thirdStep(step)), "cost=2193.266316856917 n=512 h=2 maxslot=256"; got != want {
		t.Errorf("benchMachine(256) fingerprint %q, want %q", got, want)
	}
	for _, sz := range scaleSizes {
		t.Run(sz.name, func(t *testing.T) {
			if sz.p == 1<<20 && testing.Short() {
				t.Skip("~100 MB machine; skipped under -short like TestScaleMillionProcessors")
			}
			_, step := scaleMachine(sz.p)
			if got := fmt.Sprintf("p=%d %s", sz.p, fingerprint(thirdStep(step))); got != sz.model {
				t.Errorf("fingerprint %q, want %q", got, sz.model)
			}
		})
	}
}
