package emulate

import (
	"testing"
	"testing/quick"

	"parbw/internal/bsp"
	"parbw/internal/engine"
	"parbw/internal/model"
	"parbw/internal/qsm"
	"parbw/internal/xrand"
)

func TestGroupedSendNeverOverloads(t *testing.T) {
	p, g := 64, 8
	mm := p / g
	m := bsp.New(bsp.Config{P: p, Cost: model.BSPm(mm, 2), Seed: 1})
	// Every processor sends 3 messages — an h=3 relation under the group
	// schedule.
	st := RunGroupedBSP(m, g, func(c *bsp.Ctx, send func(int, bsp.Msg)) {
		for k := 0; k < 3; k++ {
			send((c.ID()+k+1)%p, bsp.Msg{A: int64(k)})
		}
	})
	if st.Overload != 0 {
		t.Fatalf("group emulation overloaded: %+v", st)
	}
	if st.MaxSlot > mm {
		t.Fatalf("MaxSlot = %d > m = %d", st.MaxSlot, mm)
	}
	// All delivered.
	total := 0
	for i := 0; i < p; i++ {
		total += len(m.Inbox(i))
	}
	if total != 3*p {
		t.Fatalf("delivered %d, want %d", total, 3*p)
	}
}

// The Section 4 claim: the emulated superstep on BSP(m) costs no more than
// the same superstep on BSP(g) with m = p/g.
func TestGroupEmulationPreservesTime(t *testing.T) {
	f := func(seed uint64) bool {
		p := 32
		g := 1 << (seed % 4) // 1,2,4,8
		mm := p / g
		h := 1 + int(seed%5)
		lg := bsp.New(bsp.Config{P: p, Cost: model.BSPg(g, 4), Seed: seed})
		lg.Superstep(func(c *bsp.Ctx) {
			for k := 0; k < h; k++ {
				c.Send((c.ID()+k+1)%p, 0, 1)
			}
		})
		gm := bsp.New(bsp.Config{P: p, Cost: model.BSPmLinear(mm, 4), Seed: seed})
		RunGroupedBSP(gm, g, func(c *bsp.Ctx, send func(int, bsp.Msg)) {
			for k := 0; k < h; k++ {
				send((c.ID()+k+1)%p, bsp.Msg{A: 1})
			}
		})
		return gm.Time() <= lg.Time()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupEmulationBadG(t *testing.T) {
	m := bsp.New(bsp.Config{P: 4, Cost: model.BSPmLinear(2, 1), Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("g=0 accepted")
		}
	}()
	RunGroupedBSP(m, 0, func(c *bsp.Ctx, send func(int, bsp.Msg)) {})
}

func simMachine(p, mcells, mm int, kind model.Kind, seed uint64) (*qsm.Machine, PRAMm) {
	pm := PRAMm{Base: p, MCells: mcells}
	mem := pm.Base + mcells + 2*p + p + 8
	var cost model.Cost
	if kind == model.KindQSMm {
		cost = model.QSMm(mm)
	} else {
		cost = model.QSMg(1)
	}
	m := qsm.New(qsm.Config{P: p, Mem: mem, Cost: cost, Seed: seed})
	return m, pm
}

func TestSimulateCRCWReadRandom(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p := 1 << (3 + seed%3) // 8, 16, 32
		mcells := 1 + rng.Intn(2*p)
		mm := 1 << (seed % 3) // 1, 2, 4
		m, pm := simMachine(p, mcells, mm, model.KindQSMm, seed)
		vals := make([]int64, mcells)
		for a := range vals {
			vals[a] = int64(rng.Intn(1 << 30))
			m.Store(pm.Base+a, vals[a])
		}
		addr := make([]int, p)
		for i := range addr {
			addr[i] = rng.Intn(mcells)
		}
		out := pm.SimulateCRCWRead(m, addr)
		for i := range addr {
			if out[i] != vals[addr[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateCRCWReadAllSameAddress(t *testing.T) {
	// The worst case for exclusive reading: every processor reads cell 5.
	p, mm := 64, 4
	m, pm := simMachine(p, 16, mm, model.KindQSMm, 3)
	m.Store(pm.Base+5, 424242)
	addr := make([]int, p)
	for i := range addr {
		addr[i] = 5
	}
	out := pm.SimulateCRCWRead(m, addr)
	for i, v := range out {
		if v != 424242 {
			t.Fatalf("proc %d got %d", i, v)
		}
	}
}

func TestSimulateCRCWReadDistinct(t *testing.T) {
	p, mm := 32, 8
	m, pm := simMachine(p, p, mm, model.KindQSMm, 4)
	for a := 0; a < p; a++ {
		m.Store(pm.Base+a, int64(a*7))
	}
	addr := make([]int, p)
	for i := range addr {
		addr[i] = (i * 3) % p
	}
	out := pm.SimulateCRCWRead(m, addr)
	for i := range addr {
		if out[i] != int64(addr[i]*7) {
			t.Fatalf("proc %d got %d, want %d", i, out[i], addr[i]*7)
		}
	}
}

// Theorem 5.1 shape: simulation time scales like p/m — doubling m should
// shrink the time significantly at fixed p.
func TestSimulationSlowdownScalesWithM(t *testing.T) {
	p := 1024
	run := func(mm int) float64 {
		m, pm := simMachine(p, 64, mm, model.KindQSMm, 7)
		rng := xrand.New(9)
		for a := 0; a < 64; a++ {
			m.Store(pm.Base+a, int64(a))
		}
		addr := make([]int, p)
		for i := range addr {
			addr[i] = rng.Intn(64)
		}
		pm.SimulateCRCWRead(m, addr)
		return m.Time()
	}
	t4, t8, t32 := run(4), run(8), run(32)
	if !(t4 > t8 && t8 > t32) {
		t.Fatalf("times not monotone in m: %v, %v, %v", t4, t8, t32)
	}
	// The measured time is Θ(p/m) plus an additive Θ(p/q) sorting floor
	// (q ≈ p^{1/3} sorters), so the ratio is below the ideal 8 but must
	// clearly track p/m.
	if t4/t32 < 1.5 {
		t.Fatalf("slowdown ratio %v too flat for Θ(p/m)", t4/t32)
	}
}

func TestSimulateValidation(t *testing.T) {
	p := 8
	m, pm := simMachine(p, 4, 2, model.KindQSMm, 1)
	for _, fn := range []func(){
		func() { pm.SimulateCRCWRead(m, make([]int, p-1)) },
		func() { pm.SimulateCRCWRead(m, []int{0, 0, 0, 0, 0, 0, 0, 9}) },
		func() { (PRAMm{Base: 0, MCells: 4}).SimulateCRCWRead(m, make([]int, p)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid input accepted")
				}
			}()
			fn()
		}()
	}
}

func TestRunPRAMOnQSMPrefixSum(t *testing.T) {
	for _, n := range []int{1, 2, 8, 33, 64} {
		for _, mm := range []int{1, 4, 16} {
			prog, final := PrefixDoublingSum(n)
			m := qsm.New(qsm.Config{P: 32, Mem: 2 * n, Cost: model.QSMm(mm), Seed: 5})
			var want int64
			for i := 0; i < n; i++ {
				m.Store(i, int64(i+1))
				want += int64(i + 1)
			}
			st := RunPRAMOnQSM(m, prog)
			if got := m.Load(final()); got != want {
				t.Fatalf("n=%d m=%d: sum = %d, want %d", n, mm, got, want)
			}
			if st.Steps != prog.Steps {
				t.Fatalf("steps = %d, want %d", st.Steps, prog.Steps)
			}
		}
	}
}

// The observation's time bound: O(t + w/m) — doubling m should roughly
// halve the mapped time when w/m dominates.
func TestRunPRAMOnQSMTimeShape(t *testing.T) {
	n := 256
	run := func(mm int) float64 {
		prog, _ := PrefixDoublingSum(n)
		m := qsm.New(qsm.Config{P: 64, Mem: 2 * n, Cost: model.QSMm(mm), Seed: 6})
		for i := 0; i < n; i++ {
			m.Store(i, 1)
		}
		RunPRAMOnQSM(m, prog)
		return m.Time()
	}
	t2, t8 := run(2), run(8)
	if t2/t8 < 2.5 {
		t.Fatalf("mapped time ratio %v too flat for Θ(w/m): %v vs %v", t2/t8, t2, t8)
	}
}

// EREW exclusivity violations in the virtual program must surface.
func TestRunPRAMOnQSMCatchesConflicts(t *testing.T) {
	prog := VirtProgram{
		VirtProcs: 4,
		Steps:     1,
		Step: func(s, v int) VirtOp {
			return VirtOp{ReadAddr: 0} // everyone reads cell 0 in one step
		},
	}
	m := qsm.New(qsm.Config{P: 4, Mem: 4, Cost: model.QSMm(4), Seed: 1})
	st := RunPRAMOnQSM(m, prog)
	// Concurrent reads are legal on the QSM (contention-charged), so this
	// runs — but κ shows up in the cost. A true write conflict panics:
	if st.Work != 4 {
		t.Fatalf("work = %d", st.Work)
	}
	bad := VirtProgram{
		VirtProcs: 2,
		Steps:     1,
		Step: func(s, v int) VirtOp {
			return VirtOp{ReadAddr: -1, Cont: func(int64) (VirtWrite, bool) {
				return VirtWrite{Addr: 9999, Val: 1}, true
			}}
		},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid virtual write accepted")
		}
	}()
	RunPRAMOnQSM(m, bad)
}

func TestRunPRAMOnQSMNoOverload(t *testing.T) {
	n := 128
	prog, _ := PrefixDoublingSum(n)
	m := qsm.New(qsm.Config{P: 32, Mem: 2 * n, Cost: model.QSMm(8), Seed: 7})
	st := RunPRAMOnQSM(m, prog)
	if st.Overload != 0 {
		t.Fatalf("deterministic round-robin mapping overloaded: %+v", st)
	}
	if st.MaxSlot > 8 {
		t.Fatalf("MaxSlot %d > m", st.MaxSlot)
	}
}

func TestPointerJumpRankMapped(t *testing.T) {
	for _, n := range []int{1, 2, 8, 33} {
		for _, mm := range []int{2, 8} {
			rng := xrand.New(uint64(n*10 + mm))
			list := problemsRandomList(rng, n)
			prog := PointerJumpRank(n)
			m := qsm.New(qsm.Config{P: 16, Mem: 2 * n, Cost: model.QSMm(mm), Seed: 3})
			for i, s := range list {
				m.Store(i, int64(s+1))
				if s != -1 {
					m.Store(n+i, 1)
				}
			}
			RunPRAMOnQSM(m, prog)
			want := sequentialRanks(list)
			for i := range want {
				if got := m.Load(n + i); got != want[i] {
					t.Fatalf("n=%d m=%d: rank[%d] = %d, want %d", n, mm, i, got, want[i])
				}
			}
		}
	}
}

// problemsRandomList builds a random list as a succ array (avoiding an
// import cycle with problems).
func problemsRandomList(rng *xrand.Source, n int) []int {
	perm := rng.Perm(n)
	succ := make([]int, n)
	for k := 0; k < n-1; k++ {
		succ[perm[k]] = perm[k+1]
	}
	succ[perm[n-1]] = -1
	return succ
}

func sequentialRanks(succ []int) []int64 {
	n := len(succ)
	pred := make([]int, n)
	for i := range pred {
		pred[i] = -1
	}
	tail := -1
	for i, s := range succ {
		if s == -1 {
			tail = i
		} else {
			pred[s] = i
		}
	}
	rank := make([]int64, n)
	r := int64(0)
	for i := tail; i != -1; i = pred[i] {
		rank[i] = r
		r++
	}
	return rank
}

// Comparison of the two mapped algorithms' costs: the work term shows up as
// the gap between pointer jumping (w = Θ(n·lg n)) and the direct doubling
// sum (same w but fewer steps) at small m.
func TestPointerJumpWorkTermVisible(t *testing.T) {
	n := 128
	run := func(mm int) float64 {
		rng := xrand.New(9)
		list := problemsRandomList(rng, n)
		prog := PointerJumpRank(n)
		m := qsm.New(qsm.Config{P: 32, Mem: 2 * n, Cost: model.QSMm(mm), Seed: 4})
		for i, s := range list {
			m.Store(i, int64(s+1))
			if s != -1 {
				m.Store(n+i, 1)
			}
		}
		st := RunPRAMOnQSM(m, prog)
		return st.QSMTime
	}
	t2, t16 := run(2), run(16)
	if t2/t16 < 3 {
		t.Fatalf("w/m term not visible: %v vs %v", t2, t16)
	}
}

func TestSimulateCRCWWrite(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p := 1 << (3 + seed%3)
		cells := 1 + rng.Intn(p)
		mm := 1 << (seed % 3)
		m, pm := simMachine(p, cells, mm, model.KindQSMm, seed)
		addr := make([]int, p)
		val := make([]int64, p)
		for i := range addr {
			if rng.Intn(4) == 0 {
				addr[i] = -1 // no write
				continue
			}
			addr[i] = rng.Intn(cells)
			val[i] = int64(rng.Intn(1 << 20))
		}
		pm.SimulateCRCWWrite(m, addr, val)
		// Reference: the simulation's Arbitrary instance — the largest
		// value written to each cell wins.
		want := make([]int64, cells)
		for i := range addr {
			if addr[i] != -1 && val[i] > want[addr[i]] {
				want[addr[i]] = val[i]
			}
		}
		for a := 0; a < cells; a++ {
			if m.Load(pm.Base+a) != want[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateCRCWWriteAllSameCell(t *testing.T) {
	p, mm := 32, 4
	m, pm := simMachine(p, 8, mm, model.KindQSMm, 5)
	addr := make([]int, p)
	val := make([]int64, p)
	for i := range addr {
		addr[i] = 3
		val[i] = int64(i)
	}
	pm.SimulateCRCWWrite(m, addr, val)
	if got := m.Load(pm.Base + 3); got != int64(p-1) {
		t.Fatalf("winner = %d, want %d (largest value)", got, p-1)
	}
}

func TestSimulateCRCWWriteValidation(t *testing.T) {
	p := 8
	m, pm := simMachine(p, 4, 2, model.KindQSMm, 1)
	for _, fn := range []func(){
		func() { pm.SimulateCRCWWrite(m, make([]int, p-1), make([]int64, p)) },
		func() {
			a := make([]int, p)
			a[0] = 99
			pm.SimulateCRCWWrite(m, a, make([]int64, p))
		},
		func() {
			v := make([]int64, p)
			v[0] = -5
			pm.SimulateCRCWWrite(m, make([]int, p), v)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid write simulation input accepted")
				}
			}()
			fn()
		}()
	}
}

// The Section 4 observation covers "EREW or QRQW PRAM" algorithms: a
// queued-contention virtual program maps onto the QSM, whose κ term charges
// the queue automatically (the QSM's maximum-contention cost is exactly the
// QRQW queue charge).
func TestRunPRAMOnQSMQueuedContention(t *testing.T) {
	n := 16
	prog := VirtProgram{
		VirtProcs: n,
		Steps:     1,
		Step: func(s, v int) VirtOp {
			return VirtOp{ReadAddr: 0} // all n virtual processors read cell 0
		},
	}
	var phases []engine.StepStats
	m := qsm.New(qsm.Config{P: n, Mem: 4, Cost: model.QSMm(8), Seed: 1,
		Observer: engine.ObserverFunc(func(st engine.StepStats) {
			st.Hist = nil
			phases = append(phases, st)
		})})
	m.Store(0, 9)
	st := RunPRAMOnQSM(m, prog)
	if st.Work != n {
		t.Fatalf("work = %d", st.Work)
	}
	// The read phase must have charged κ = n (the QRQW queue). A phase costs
	// max(w, h, c_m, κ), so one costing exactly n while w, h and c_m all stay
	// below n was charged by κ, and κ ≤ n since only n processors read.
	queued := 0
	for _, ph := range phases {
		if ph.Cost == float64(n) && ph.W < n && ph.H < n && ph.CM < float64(n) {
			queued++
		}
	}
	if queued != 1 {
		t.Fatalf("%d phases charged κ = %d, want 1 (queued contention charged): %+v", queued, n, phases)
	}
	if m.Time() < float64(n) {
		t.Fatalf("time %v below the queue charge %d", m.Time(), n)
	}
}
