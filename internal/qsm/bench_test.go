package qsm

import (
	"fmt"
	"runtime"
	"testing"

	"parbw/internal/model"
)

// benchMachine builds a single-worker machine plus a representative phase
// program: every processor reads from the low half of memory and writes its
// private cell in the high half (QSM forbids reading and writing the same
// location in one phase). The program closure is hoisted so that per-call
// closure allocation does not mask the machine's own behavior.
func benchMachine(p int) (*Machine, func() Stats) {
	m := New(Config{P: p, Mem: 2 * p, Cost: model.QSMm(32), Seed: 1, Workers: 1})
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

// BenchmarkSuperstepFanout measures what fanning a phase out over the
// host's cores buys: benchMachine's program at p = 4096 to 2^20 on one
// worker, on GOMAXPROCS workers (-1, read inside the sub-benchmark, where
// -cpu has set it), and on the auto-sized count (Workers: 0),
// as the bsp package's benchmark of the same name does for a superstep.
func BenchmarkSuperstepFanout(b *testing.B) {
	for _, p := range []int{4096, 16384, 65536, 262144, 1 << 20} {
		for _, w := range []struct {
			name    string
			workers int
		}{{"workers=1", 1}, {"workers=max", -1}, {"auto", 0}} {
			b.Run(fmt.Sprintf("p=%d/%s", p, w.name), func(b *testing.B) {
				workers := w.workers
				if workers < 0 {
					workers = runtime.GOMAXPROCS(0)
				}
				m := New(Config{P: p, Mem: 2 * p, Cost: model.QSMm(32), Seed: 1, Workers: workers})
				body := func(c *Ctx) {
					c.Charge(4)
					c.Read((c.ID() + 1) % p)
					c.Write(p+c.ID(), int64(c.ID()))
				}
				m.Phase(body) // warm the recycled buffers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Phase(body)
				}
			})
		}
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
