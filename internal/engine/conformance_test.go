package engine_test

// Cross-model conformance suite: the BSP, QSM, and PRAM machines are three
// merge strategies over one engine core, so the same abstract workload must
// produce the same normalized accounting on all of them. The suite drives a
// seeded slot-scheduled workload through each machine and checks the shared
// Stats invariants — N equals the sum of issued requests, Steps equals the
// maximum slot + 1, per-slot histograms agree, and cost is monotone in
// per-step overload — plus the ordering contract of the observer layer.

import (
	"testing"

	"parbw/internal/bsp"
	"parbw/internal/engine"
	"parbw/internal/model"
	"parbw/internal/pram"
	"parbw/internal/qsm"
)

// workload is an abstract slot-scheduled communication pattern: request j of
// processor i goes to destination dst[i][j] in slot slot[i][j]. Slots are
// distinct per processor, so the pattern is valid on every machine.
type workload struct {
	p    int
	slot [][]int
	dst  [][]int
}

// conformanceWorkload builds a deterministic skewed workload: processor i
// issues 1 + i%3 requests at slots (i + 2j) mod 8 toward (i*7 + j) mod p.
func conformanceWorkload(p int) workload {
	w := workload{p: p, slot: make([][]int, p), dst: make([][]int, p)}
	for i := 0; i < p; i++ {
		k := 1 + i%3
		for j := 0; j < k; j++ {
			w.slot[i] = append(w.slot[i], (i+2*j)%8)
			w.dst[i] = append(w.dst[i], (i*7+j)%p)
		}
	}
	return w
}

// expected computes the workload's ground-truth accounting directly.
func (w workload) expected() (n, steps, maxSlot int, hist []int) {
	for i := range w.slot {
		for _, s := range w.slot[i] {
			if s+1 > steps {
				steps = s + 1
			}
		}
		n += len(w.slot[i])
	}
	hist = make([]int, steps)
	for i := range w.slot {
		for _, s := range w.slot[i] {
			hist[s]++
			if hist[s] > maxSlot {
				maxSlot = hist[s]
			}
		}
	}
	return n, steps, maxSlot, hist
}

func TestConformanceAcrossModels(t *testing.T) {
	const p = 16
	w := conformanceWorkload(p)
	wantN, wantSteps, wantMaxSlot, wantHist := w.expected()

	// BSP(m): one single-flit message per scheduled request.
	bm := bsp.New(bsp.Config{P: p, Cost: model.BSPm(4, 1), Seed: 1})
	bst := bm.Superstep(func(c *bsp.Ctx) {
		i := c.ID()
		for j, s := range w.slot[i] {
			c.SendAt(s, w.dst[i][j], bsp.Msg{Tag: 1, A: int64(j)})
		}
	})
	if bst.N != wantN {
		t.Errorf("bsp: N = %d, want sum of sends %d", bst.N, wantN)
	}
	if bst.Steps != wantSteps {
		t.Errorf("bsp: Steps = %d, want max slot+1 = %d", bst.Steps, wantSteps)
	}
	if bst.MaxSlot != wantMaxSlot {
		t.Errorf("bsp: MaxSlot = %d, want %d", bst.MaxSlot, wantMaxSlot)
	}

	// QSM(m): one write request per scheduled request; distinct per-proc
	// addresses keep the read/write exclusion rule out of the picture.
	qm := qsm.New(qsm.Config{P: p, Mem: p, Cost: model.QSMm(4), Seed: 1})
	qst := qm.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		for j, s := range w.slot[i] {
			c.WriteAt(s, w.dst[i][j], int64(i))
		}
	})
	if got := qst.Reads + qst.Writes; got != wantN {
		t.Errorf("qsm: Reads+Writes = %d, want %d", got, wantN)
	}
	if qst.Steps != wantSteps {
		t.Errorf("qsm: Steps = %d, want %d", qst.Steps, wantSteps)
	}
	if qst.MaxSlot != wantMaxSlot {
		t.Errorf("qsm: MaxSlot = %d, want %d", qst.MaxSlot, wantMaxSlot)
	}

	// The two slot-scheduled machines must also agree on c_m: identical
	// histograms priced by the identical penalty.
	if bst.CM != qst.CM {
		t.Errorf("c_m diverges: bsp %v vs qsm %v", bst.CM, qst.CM)
	}
	if bst.Overload != qst.Overload {
		t.Errorf("overload diverges: bsp %d vs qsm %d", bst.Overload, qst.Overload)
	}

	// PRAM: slot s becomes lock-step step s; processor i writes its cell in
	// the steps it scheduled. Per-step write totals must reproduce the slot
	// histogram, and the total must match N.
	pm := pram.New(pram.Config{P: p, Mem: p, Mode: pram.CRCWArbitrary, Seed: 1})
	total := 0
	for s := 0; s < wantSteps; s++ {
		st := pm.Step(func(c *pram.Ctx) {
			i := c.ID()
			for j, ps := range w.slot[i] {
				if ps == s {
					c.Write(w.dst[i][j], int64(i))
				}
			}
		})
		if st.Writes != wantHist[s] {
			t.Errorf("pram: step %d writes = %d, want hist %d", s, st.Writes, wantHist[s])
		}
		total += st.Writes
	}
	if total != wantN {
		t.Errorf("pram: total writes = %d, want %d", total, wantN)
	}
	if pm.Steps() != wantSteps {
		t.Errorf("pram: Steps = %d, want %d", pm.Steps(), wantSteps)
	}
}

// costUnderLoad packs n width-1 requests evenly into 4 slots on a machine
// with m=4 and returns the charged superstep/phase cost.
func bspCostUnderLoad(t *testing.T, n int) model.Time {
	t.Helper()
	m := bsp.New(bsp.Config{P: n, Cost: model.BSPm(4, 1), Seed: 1})
	st := m.Superstep(func(c *bsp.Ctx) {
		c.SendAt(c.ID()%4, (c.ID()+1)%n, bsp.Msg{Tag: 1})
	})
	if st.N != n {
		t.Fatalf("bsp load %d: N = %d", n, st.N)
	}
	return st.Cost
}

func qsmCostUnderLoad(t *testing.T, n int) model.Time {
	t.Helper()
	m := qsm.New(qsm.Config{P: n, Mem: n, Cost: model.QSMm(4), Seed: 1})
	st := m.Phase(func(c *qsm.Ctx) {
		c.WriteAt(c.ID()%4, c.ID(), 1)
	})
	if st.Writes != n {
		t.Fatalf("qsm load %d: Writes = %d", n, st.Writes)
	}
	return st.Cost
}

// Cost must be monotone in per-step overload, and identical between the two
// slot-scheduled machines: the same histogram under the same penalty prices
// the same, whether the requests are messages or shared-memory writes.
func TestConformanceCostMonotoneInOverload(t *testing.T) {
	loads := []int{4, 8, 16, 32, 64}
	var prevB, prevQ model.Time
	for i, n := range loads {
		cb := bspCostUnderLoad(t, n)
		cq := qsmCostUnderLoad(t, n)
		if cb != cq {
			t.Errorf("load %d: bsp cost %v != qsm cost %v", n, cb, cq)
		}
		if i > 0 && cb < prevB {
			t.Errorf("bsp cost not monotone: load %d cost %v < previous %v", n, cb, prevB)
		}
		if i > 0 && cq < prevQ {
			t.Errorf("qsm cost not monotone: load %d cost %v < previous %v", n, cq, prevQ)
		}
		prevB, prevQ = cb, cq
	}
	// Past the aggregate limit the exponential penalty must actually bite.
	if !(bspCostUnderLoad(t, 64) > bspCostUnderLoad(t, 16)) {
		t.Error("overloaded schedule not priced above saturated schedule")
	}
}

// Observer contract: the observer given at construction fires once per
// committed step, in superstep order, with the stats Superstep itself
// returns.
func TestObserverCallbackOrdering(t *testing.T) {
	var events []engine.StepStats
	m := bsp.New(bsp.Config{
		P: 8, Cost: model.BSPm(4, 1), Seed: 1,
		Observer: engine.ObserverFunc(func(st engine.StepStats) {
			events = append(events, st)
		}),
	})

	const steps = 5
	var trace []bsp.Stats
	for s := 0; s < steps; s++ {
		trace = append(trace, m.Superstep(func(c *bsp.Ctx) {
			c.Charge(s + 1)
			c.Send((c.ID()+1)%8, 1, int64(s))
		}))
	}

	if len(events) != steps {
		t.Fatalf("saw %d events, want %d", len(events), steps)
	}
	for s, ev := range events {
		if ev.Machine != "bsp" || ev.Index != s {
			t.Fatalf("step %d: got machine %q index %d", s, ev.Machine, ev.Index)
		}
		if ev.Cost != trace[s].Cost || ev.N != trace[s].N || ev.W != trace[s].W {
			t.Fatalf("step %d: observer stats %+v diverge from Superstep %+v", s, ev, trace[s])
		}
	}
}

// Caller-order contract: every machine runs its processors' programs on the
// goroutine that called Superstep/Phase/Step, one at a time, processor 0
// first. The programs append to a shared slice with no synchronization, so
// under -race any concurrent run is reported, and the slice must read
// 0..p-1. p is far above any size at which an engine might be tempted to
// split a step across goroutines.
func TestProgramsRunInCallerOrder(t *testing.T) {
	const p = 1 << 17
	check := func(name string, ids []int) {
		t.Helper()
		if len(ids) != p {
			t.Fatalf("%s: %d programs ran, want %d", name, len(ids), p)
		}
		for i, id := range ids {
			if id != i {
				t.Fatalf("%s: program %d was processor %d", name, i, id)
			}
		}
	}
	var ids []int
	bsp.New(bsp.Config{P: p, Cost: model.BSPg(1, 1), Seed: 1}).
		Superstep(func(c *bsp.Ctx) { ids = append(ids, c.ID()) })
	check("bsp", ids)
	ids = ids[:0]
	qsm.New(qsm.Config{P: p, Mem: 1, Cost: model.QSMg(1), Seed: 1}).
		Phase(func(c *qsm.Ctx) { ids = append(ids, c.ID()) })
	check("qsm", ids)
	ids = ids[:0]
	pram.New(pram.Config{P: p, Mem: 1, Mode: pram.EREW, Seed: 1}).
		Step(func(c *pram.Ctx) { ids = append(ids, c.ID()) })
	check("pram", ids)
}
