// Large-scale sanity: the engines handle tens of thousands of simulated
// processors, and the Table 1 separations persist at scale. Skipped under
// -short.
package parbw_test

import (
	"runtime"
	"testing"

	"parbw/internal/bsp"
	"parbw/internal/collective"
	"parbw/internal/model"
	"parbw/internal/qsm"
	"parbw/internal/sched"
	"parbw/internal/xrand"
)

// TestScaleMillionProcessors runs supersteps on a 2^20-processor BSP machine
// and asserts a hard heap ceiling. This is the columnar engine's reason to
// exist: per-processor state is flat columns plus one send arena, so a
// million processors cost a handful of large allocations (~100 MB for this
// workload), not millions of small ones. The ceiling is asserted after a
// forced GC and skipped under the race detector, whose shadow memory
// inflates every allocation.
func TestScaleMillionProcessors(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	const p = 1 << 20
	const heapCeiling = 192 << 20 // bytes; ~2x the expected live heap
	m := bsp.New(bsp.Config{P: p, Cost: model.BSPg(4, 16), Seed: 11})
	program := func(c *bsp.Ctx) {
		if i := c.ID(); i&1 == 0 {
			c.Send(i+1, 7, int64(i))
		}
	}
	for s := 0; s < 3; s++ {
		st := m.Superstep(program)
		if st.N != p/2 {
			t.Fatalf("superstep %d: N = %d, want %d", s, st.N, p/2)
		}
		if st.H != 1 {
			t.Fatalf("superstep %d: H = %d, want 1", s, st.H)
		}
	}
	// Every even processor sent to its odd neighbor; spot-check delivery
	// across the machine.
	for i := 1; i < p; i += 99991 {
		j := i &^ 1 // even sender for this stride's odd receiver
		in := m.Inbox(j + 1)
		if len(in) != 1 || in[0].A != int64(j) {
			t.Fatalf("proc %d inbox = %+v, want one message from %d", j+1, in, j)
		}
	}
	if !raceEnabled {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > heapCeiling {
			t.Errorf("HeapAlloc = %d MB after p=2^20 supersteps, ceiling %d MB",
				ms.HeapAlloc>>20, heapCeiling>>20)
		}
		// The machine must be live when the heap is read, or the GC above
		// frees it and the ceiling bounds nothing.
		runtime.KeepAlive(m)
	}
}

func TestScaleBroadcast16k(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	p, g, l := 1<<14, 16, 32
	lm := bsp.New(bsp.Config{P: p, Cost: model.BSPg(g, l), Seed: 1})
	out := collective.BroadcastBSP(lm, 0, 5)
	for i := 0; i < p; i += 1000 {
		if out[i] != 5 {
			t.Fatalf("proc %d missed the broadcast", i)
		}
	}
	gm := bsp.New(bsp.Config{P: p, Cost: model.BSPmLinear(p/g, l), Seed: 1})
	collective.BroadcastBSP(gm, 0, 5)
	if gm.Time() >= lm.Time() {
		t.Fatalf("scale separation inverted: %v vs %v", gm.Time(), lm.Time())
	}
}

func TestScaleUnbalancedSend(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	p, mm := 4096, 256
	rng := xrand.New(2)
	plan := sched.ZipfPlan(rng, p, 1<<17, 1.1)
	m := bsp.New(bsp.Config{P: p, Cost: model.BSPm(mm, 8), Seed: 2})
	r := sched.UnbalancedSend(m, plan, sched.Options{Eps: 0.25})
	if r.Send.Overload != 0 {
		t.Fatalf("overloaded at scale: %d steps (maxslot %d)", r.Send.Overload, r.Send.MaxSlot)
	}
	opt := r.OptimalOffline(mm, 8)
	if (r.Time-r.Tau)/opt > 1.3 {
		t.Fatalf("time/opt = %v at scale", (r.Time-r.Tau)/opt)
	}
}

func TestScaleQSMPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	p := 1 << 13
	m := qsm.New(qsm.Config{P: p, Mem: 2 * p, Cost: model.QSMm(64), Seed: 3})
	vals := make([]int64, p)
	for i := range vals {
		vals[i] = 1
	}
	pre, total := collective.PrefixSumQSM(m, vals, collective.Sum, 0)
	if total != int64(p) || pre[p-1] != int64(p-1) {
		t.Fatalf("prefix wrong at scale: total %d, last %d", total, pre[p-1])
	}
}
