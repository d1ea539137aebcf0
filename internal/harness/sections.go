package harness

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/collective"
	"parbw/internal/emulate"
	"parbw/internal/lower"
	"parbw/internal/model"
	"parbw/internal/pram"
	"parbw/internal/problems"
	"parbw/internal/qsm"
	"parbw/internal/tablefmt"
	"parbw/internal/xrand"
)

func init() {
	register(Experiment{
		ID:     "lb/broadcast",
		Title:  "Broadcast lower bound vs the ternary non-receipt algorithm",
		Source: "Theorem 4.1 and the Section 4.2 algorithm",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in sweep over machine sizes (ternary table)").Range(0, 1<<20),
			IntParam("p2", 0, "0 = built-in size of the tree-broadcast table (4096 full, 256 quick)").Range(0, 1<<20),
		},
		run: runBroadcastLB,
	})
	register(Experiment{
		ID:     "lb/hrelation-crcw",
		Title:  "Realizing h-relations on the CRCW PRAM in O(h)",
		Source: "Section 4.1 (lower-bound conversion machinery)",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (64 full, 16 quick)").Range(0, 1<<20),
			IntParam("h", 0, "0 = built-in sweep over relation degrees; >0 runs one h").Range(0, 1<<16),
		},
		run: runHRelationCRCW,
	})
	register(Experiment{
		ID:     "sim/crcw-pramm",
		Title:  "Simulating a CRCW PRAM(m) read step on the QSM(m)",
		Source: "Theorem 5.1",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (1024 full, 128 quick)").Range(0, 1<<20),
			IntParam("m", 0, "0 = built-in bandwidth sweep; >0 runs one m").Range(0, 1<<16),
			IntParam("cells", 64, "shared PRAM(m) cells simulated").Range(1, 1<<16),
		},
		run: runCRCWSim,
	})
	register(Experiment{
		ID:     "sep/leader",
		Title:  "Leader recognition: concurrent vs exclusive read",
		Source: "Theorem 5.2 / Lemma 5.3",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in sweep over machine sizes; >0 runs one p").Range(0, 1<<20),
			IntParam("m", 4, "shared-memory cells / aggregate bandwidth m").Range(1, 1<<16),
		},
		run: runLeader,
	})
	register(Experiment{
		ID:     "emul/group",
		Title:  "Group emulation of BSP(g) supersteps on the BSP(m)",
		Source: "Section 4 (grouping observation)",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (256 full, 64 quick)").Range(0, 1<<20),
			IntParam("l", 8, "latency/periodicity floor L").Range(0, 1<<16),
		},
		run: runGroupEmul,
	})
}

func newQSMmMem(p, mem int, c model.Cost, cfg Config) *qsm.Machine {
	return qsm.New(qsm.Config{P: p, Mem: mem, Cost: c, Seed: cfg.Seed, Observer: cfg.Observer})
}

func runBroadcastLB(rec *Recorder) {
	cfg := rec.Cfg
	t := tablefmt.New("single-bit broadcast on BSP(g): ternary algorithm vs Theorem 4.1 lower bound",
		"p", "g", "L", "ternary measured", "alg predicted g·⌈log3 p⌉", "Thm4.1 LB", "measured/LB")
	ps := rec.IntSweep("p", []int{81, 729, 6561}, []int{27, 243})
	gls := [][2]int{{8, 8}, {16, 8}, {32, 4}}
	rec.Rows(t, len(ps)*len(gls), func(i int, row func(...any)) {
		p, g, l := ps[i/len(gls)], gls[i%len(gls)][0], gls[i%len(gls)][1]
		m := newBSPg(p, g, l, cfg)
		collective.BroadcastTernaryBSPg(m, 1)
		lb := lower.BroadcastLBBSPg(p, g, l)
		pred := lower.BroadcastTernaryBSPg(p, g)
		row(p, g, l, m.Time(), pred, lb, m.Time()/lb)
	})
	rec.Emit(t)

	t2 := tablefmt.New("tree broadcast vs Theorem 4.1 lower bound across L/g",
		"p", "g", "L", "tree measured", "Thm4.1 LB", "measured/LB")
	p := rec.IntOr("p2", 4096, 256)
	treeGLs := [][2]int{{1, 2}, {2, 8}, {4, 32}, {8, 128}}
	rec.Rows(t2, len(treeGLs), func(i int, row func(...any)) {
		g, l := treeGLs[i][0], treeGLs[i][1]
		m := newBSPg(p, g, l, cfg)
		collective.BroadcastBSP(m, 0, 1)
		lb := lower.BroadcastLBBSPg(p, g, l)
		row(p, g, l, m.Time(), lb, m.Time()/lb)
	})
	rec.Emit(t2)
}

func runHRelationCRCW(rec *Recorder) {
	cfg := rec.Cfg
	p := rec.IntOr("p", 64, 16)
	t := tablefmt.New("h-relation realization on Arbitrary-CRCW PRAM (p=64)",
		"h (degree)", "rounds", "PRAM steps", "steps/h")
	hs := rec.IntSweep("h", []int{1, 2, 4, 8, 16, 32, 63}, []int{1, 4, 15})
	rec.Rows(t, len(hs), func(i int, row func(...any)) {
		h := hs[i]
		// Each processor sends h messages to cyclically shifted targets, so
		// every processor also receives exactly h: degree = h exactly.
		plan := make([][]problems.HRelationMsg, p)
		for i := range plan {
			for j := 0; j < h && j < p; j++ {
				plan[i] = append(plan[i], problems.HRelationMsg{Dst: (i + j + 1) % p, Val: int64(i*100 + j)})
			}
		}
		deg := problems.HRelationDegree(plan)
		m := pram.New(pram.Config{P: p, Mem: 2 * p, Mode: pram.CRCWArbitrary, Seed: cfg.Seed, Observer: cfg.Observer})
		_, rounds := problems.HRelationCRCW(m, plan)
		row(deg, rounds, m.Time(), m.Time()/float64(deg))
	})
	rec.Emit(t)

	// The two §4.1 routes: contention resolution O(h) vs sort-based
	// O(lg p · lg(x̄p)). The crossover is the reason the paper gives both.
	t2 := tablefmt.New("§4.1 routes compared: contention resolution vs sort-based (p=16, single hot target)",
		"h", "contention steps", "radix-sort steps", "winner")
	hotHs := rec.IntSweep("h", []int{1, 4, 16, 64}, []int{1, 16})
	rec.Rows(t2, len(hotHs), func(i int, row func(...any)) {
		h := hotHs[i]
		plan := make([][]problems.HRelationMsg, 16)
		for i := range plan {
			for j := 0; j < h; j++ {
				plan[i] = append(plan[i], problems.HRelationMsg{Dst: 0, Val: int64(i*100 + j)})
			}
		}
		mc := pram.New(pram.Config{P: 16, Mem: 32, Mode: pram.CRCWArbitrary, Seed: cfg.Seed, Observer: cfg.Observer})
		problems.HRelationCRCW(mc, plan)
		ms := pram.New(pram.Config{P: 16 * h, Mem: 48 * h, Mode: pram.CRCWArbitrary, Seed: cfg.Seed, Observer: cfg.Observer})
		problems.HRelationRadixCRCW(ms, plan)
		winner := "contention"
		if ms.Time() < mc.Time() {
			winner = "radix sort"
		}
		row(h, mc.Time(), ms.Time(), winner)
	})
	rec.Emit(t2)
}

func runCRCWSim(rec *Recorder) {
	cfg := rec.Cfg
	p := rec.IntOr("p", 1024, 128)
	cells := rec.Int("cells")
	t := tablefmt.New("one CRCW PRAM(m) read step on the QSM(m): measured vs Θ(p/m)",
		"p", "m", "pattern", "measured", "p/m", "ratio")
	ms := rec.IntSweep("m", []int{2, 4, 8, 16, 32}, []int{2, 8})
	patterns := []string{"random", "all-same", "distinct"}
	rec.Rows(t, len(ms)*len(patterns), func(i int, row func(...any)) {
		mm, pattern := ms[i/len(patterns)], patterns[i%len(patterns)]
		pmKind := emulate.PRAMm{Base: p, MCells: cells}
		mem := pmKind.Base + cells + 2*p + p + 8
		c := model.QSMm(mm)
		c.Penalty = model.LinearPenalty
		m := newQSMmMem(p, mem, c, cfg)
		rng := xrand.Derive(cfg.Seed, fmt.Sprintf("crcw-sim/m=%d", mm))
		for a := 0; a < cells; a++ {
			m.Store(pmKind.Base+a, int64(a*3+1))
		}
		addr := make([]int, p)
		for i := range addr {
			switch pattern {
			case "random":
				addr[i] = rng.Intn(cells)
			case "all-same":
				addr[i] = 7
			case "distinct":
				addr[i] = i % cells
			}
		}
		pmKind.SimulateCRCWRead(m, addr)
		pred := lower.SimSlowdownCRCWPRAMm(p, mm)
		row(p, mm, pattern, m.Time(), pred, m.Time()/pred)
	})
	rec.Emit(t)
}

func runLeader(rec *Recorder) {
	cfg := rec.Cfg
	mm := rec.Int("m")
	t := tablefmt.New(fmt.Sprintf("leader recognition, CR PRAM(m) vs ER PRAM(m) vs QSM(m) (m=%d, w=64)", mm),
		"p", "CR steps", "ER steps", "QSM(m) time", "ER/CR", "paper separation Ω(p·lg m/(m·lg p))")
	ps := rec.IntSweep("p", []int{64, 256, 1024, 4096}, []int{64, 256})
	rec.Rows(t, len(ps), func(i int, row func(...any)) {
		p := ps[i]
		leader := p / 3
		cr := pram.New(pram.Config{P: p, Mem: mm, Mode: pram.CRCWArbitrary,
			ROM: problems.LeaderInput(p, leader), Seed: cfg.Seed, Observer: cfg.Observer})
		problems.LeaderCR(cr)
		er := pram.New(pram.Config{P: p, Mem: mm, Mode: pram.EREW,
			ROM: problems.LeaderInput(p, leader), Seed: cfg.Seed, Observer: cfg.Observer})
		problems.LeaderER(er, mm)
		qm := newQSMmMem(p, 3*p, qsmmLinCost(mm), cfg)
		problems.LeaderQSM(qm, 2*p, leader)
		sep := lower.SeparationERCR(p, mm)
		row(p, cr.Time(), er.Time(), qm.Time(), er.Time()/cr.Time(), sep)
	})
	rec.Emit(t)
}

func runGroupEmul(rec *Recorder) {
	cfg := rec.Cfg
	p, l := rec.IntOr("p", 256, 64), rec.Int("l")
	t := tablefmt.New("h-relation superstep: BSP(g) vs group-emulated BSP(m), m=p/g",
		"g", "h", "BSP(g) time", "BSP(m) emulated", "max slot load", "m")
	gs, hs := []int{2, 4, 8, 16}, []int{1, 4, 16}
	rec.Rows(t, len(gs)*len(hs), func(i int, row func(...any)) {
		g, h := gs[i/len(hs)], hs[i%len(hs)]
		mBW := p / g
		lg := newBSPg(p, g, l, cfg)
		lg.Superstep(func(c *bsp.Ctx) {
			for k := 0; k < h; k++ {
				c.Send((c.ID()+k+1)%p, 0, 1)
			}
		})
		gm := newBSPmExp(p, mBW, l, cfg)
		st := emulate.RunGroupedBSP(gm, g, func(c *bsp.Ctx, send func(int, bsp.Msg)) {
			for k := 0; k < h; k++ {
				send((c.ID()+k+1)%p, bsp.Msg{A: 1})
			}
		})
		row(g, h, lg.Time(), gm.Time(), st.MaxSlot, mBW)
	})
	rec.Emit(t)
}
