package harness

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/collective"
	"parbw/internal/lower"
	"parbw/internal/model"
	"parbw/internal/pram"
	"parbw/internal/problems"
	"parbw/internal/qsm"
	"parbw/internal/tablefmt"
	"parbw/internal/xrand"
)

// Machine constructors, one per family. Every machine a run builds takes
// the run's seed and observer from cfg; each call site names its cost model.

func newBSP(p int, cost model.Cost, cfg Config) *bsp.Machine {
	return bsp.New(bsp.Config{P: p, Cost: cost, Seed: cfg.Seed, Observer: cfg.Observer})
}

func newQSM(p, mem int, cost model.Cost, cfg Config) *qsm.Machine {
	return qsm.New(qsm.Config{P: p, Mem: mem, Cost: cost, Seed: cfg.Seed, Observer: cfg.Observer})
}

func newPRAM(c pram.Config, cfg Config) *pram.Machine {
	c.Seed, c.Observer = cfg.Seed, cfg.Observer
	return pram.New(c)
}

// table1Params is the shared schema shape of the five Table 1 rows: the
// swept machine size plus the (g, L) point the row's separation regime
// needs. Defaults reproduce the paper's configuration for the row.
func table1Params(g, l int) []ParamSpec {
	return []ParamSpec{
		IntParam("p", 0, "0 = built-in sweep over machine sizes; >0 runs one size").Range(0, 1<<20),
		IntParam("g", g, "per-processor gap of the locally-limited models").Range(1, 1<<20),
		IntParam("l", l, "latency/periodicity floor L").Range(0, 1<<20),
	}
}

func init() {
	register(Experiment{
		ID:     "table1/onetoall",
		Title:  "One-to-all personalized communication",
		Source: "Table 1 row 1; Section 1 motivating example",
		Params: table1Params(16, 8),
		run:    runOneToAll,
	})
	register(Experiment{
		ID:     "table1/broadcast",
		Title:  "Broadcasting one value to p processors",
		Source: "Table 1 row 2",
		Params: table1Params(8, 32),
		run:    runBroadcastRow,
	})
	register(Experiment{
		ID:     "table1/parity",
		Title:  "Parity and summation of n = p values",
		Source: "Table 1 row 3",
		Params: table1Params(16, 16),
		run:    runParityRow,
	})
	register(Experiment{
		ID:     "table1/listrank",
		Title:  "List ranking an n = p node list",
		Source: "Table 1 row 4",
		Params: table1Params(32, 2),
		run:    runListRankRow,
	})
	register(Experiment{
		ID:     "table1/sort",
		Title:  "Sorting n = p keys",
		Source: "Table 1 row 5",
		Params: table1Params(16, 8),
		run:    runSortRow,
	})
}

func runOneToAll(rec *Recorder) {
	cfg := rec.Cfg
	g, l := rec.Int("g"), rec.Int("l")
	ps := rec.IntSweep("p", []int{256, 1024, 4096}, []int{64, 256})
	t := tablefmt.New(fmt.Sprintf("one-to-all: measured vs predicted (g=%d, m=p/g, L=%d)", g, l),
		"p", "model", "measured", "predicted", "ratio", "separation")
	rec.Rows(t, len(ps), func(i int, row func(...any)) {
		p := ps[i]
		m := max(p/g, 1)
		vals := make([]int64, p)
		for i := range vals {
			vals[i] = int64(i)
		}

		lb := newBSP(p, model.BSPg(g, l), cfg)
		collective.OneToAllBSP(lb, 0, vals)
		gb := newBSP(p, model.BSPmLinear(m, l), cfg)
		collective.OneToAllBSP(gb, 0, vals)
		predL := lower.OneToAllBSPg(p, g, l)
		predG := lower.OneToAllBSPm(p, l)
		row(p, "BSP(g)", lb.Time(), predL, lb.Time()/predL, "")
		row(p, "BSP(m)", gb.Time(), predG, gb.Time()/predG,
			ratioStr(lb.Time(), gb.Time()))

		lq := newQSM(p, 2*p, model.QSMg(g), cfg)
		collective.OneToAllQSM(lq, 0, vals)
		gq := newQSM(p, 2*p, model.QSMmLinear(m), cfg)
		collective.OneToAllQSM(gq, 0, vals)
		row(p, "QSM(g)", lq.Time(), lower.OneToAllQSMg(p, g),
			lq.Time()/lower.OneToAllQSMg(p, g), "")
		row(p, "QSM(m)", gq.Time(), lower.OneToAllQSMm(p),
			gq.Time()/lower.OneToAllQSMm(p), ratioStr(lq.Time(), gq.Time()))
	})
	rec.Emit(t)
}

func runBroadcastRow(rec *Recorder) {
	cfg := rec.Cfg
	g, l := rec.Int("g"), rec.Int("l")
	ps := rec.IntSweep("p", []int{256, 1024, 4096, 16384}, []int{64, 256})
	t := tablefmt.New(fmt.Sprintf("broadcast: measured vs predicted (g=%d, m=p/g, L=%d)", g, l),
		"p", "model", "measured", "predicted", "ratio", "separation")
	rec.Rows(t, len(ps), func(i int, row func(...any)) {
		p := ps[i]
		m := max(p/g, 1)

		lb := newBSP(p, model.BSPg(g, l), cfg)
		collective.BroadcastBSP(lb, 0, 7)
		gb := newBSP(p, model.BSPmLinear(m, l), cfg)
		collective.BroadcastBSP(gb, 0, 7)
		predL := lower.BroadcastBSPg(p, g, l)
		predG := lower.BroadcastBSPm(p, m, l)
		row(p, "BSP(g)", lb.Time(), predL, lb.Time()/predL, "")
		row(p, "BSP(m)", gb.Time(), predG, gb.Time()/predG,
			ratioStr(lb.Time(), gb.Time()))

		lq := newQSM(p, 2*p, model.QSMg(g), cfg)
		collective.BroadcastQSM(lq, 0, 7)
		gq := newQSM(p, 2*p, model.QSMmLinear(m), cfg)
		collective.BroadcastQSM(gq, 0, 7)
		row(p, "QSM(g)", lq.Time(), lower.BroadcastQSMg(p, g),
			lq.Time()/lower.BroadcastQSMg(p, g), "")
		row(p, "QSM(m)", gq.Time(), lower.BroadcastQSMm(p, m),
			gq.Time()/lower.BroadcastQSMm(p, m), ratioStr(lq.Time(), gq.Time()))
	})
	rec.Emit(t)
}

func runParityRow(rec *Recorder) {
	cfg := rec.Cfg
	g, l := rec.Int("g"), rec.Int("l")
	ps := rec.IntSweep("p", []int{256, 1024, 4096}, []int{64, 256})
	t := tablefmt.New(fmt.Sprintf("parity of n=p bits: measured vs predicted (g=%d, m=p/g, L=%d)", g, l),
		"n=p", "model", "measured", "predicted", "ratio", "separation")
	rec.Rows(t, len(ps), func(i int, row func(...any)) {
		p := ps[i]
		m := max(p/g, 1)
		rng := xrand.New(cfg.Seed)
		bits := make([]int64, p)
		for i := range bits {
			bits[i] = int64(rng.Intn(2))
		}

		lb := newBSP(p, model.BSPg(g, l), cfg)
		problems.ParityBSP(lb, bits)
		gb := newBSP(p, model.BSPmLinear(m, l), cfg)
		problems.ParityBSP(gb, bits)
		predL := lower.ParityBSPg(p, g, l)
		predG := lower.ParityBSPm(p, m, l)
		row(p, "BSP(g)", lb.Time(), predL, lb.Time()/predL, "")
		row(p, "BSP(m)", gb.Time(), predG, gb.Time()/predG,
			ratioStr(lb.Time(), gb.Time()))

		lq := newQSM(p, 2*p, model.QSMg(g), cfg)
		problems.ParityQSM(lq, bits)
		gq := newQSM(p, 2*p, model.QSMmLinear(m), cfg)
		problems.ParityQSM(gq, bits)
		predQL := lower.ParityQSMgLB(p, g) // lower bound for the weak model
		predQG := lower.ParityQSMm(p, m)
		row(p, "QSM(g)", lq.Time(), predQL, lq.Time()/predQL, "")
		row(p, "QSM(m)", gq.Time(), predQG, gq.Time()/predQG,
			ratioStr(lq.Time(), gq.Time()))
	})
	rec.Emit(t)
}

func runListRankRow(rec *Recorder) {
	cfg := rec.Cfg
	// g ≫ L: the row-4 separation vanishes when the latency floor L
	// dominates the per-round cost of both models.
	g, l := rec.Int("g"), rec.Int("l")
	ps := rec.IntSweep("p", []int{512, 1024, 2048}, []int{64, 128})
	t := tablefmt.New(fmt.Sprintf("list ranking n=p nodes (contraction): measured vs predicted (g=%d, m=p/g, L=%d)", g, l),
		"n=p", "model", "measured", "predicted", "ratio", "separation")
	rec.Rows(t, len(ps), func(i int, row func(...any)) {
		p := ps[i]
		m := max(p/g, 1)
		rng := xrand.New(cfg.Seed)
		list := problems.RandomList(rng, p)

		lb := newBSP(p, model.BSPg(g, l), cfg)
		problems.ListRankContractBSP(lb, list)
		gb := newBSP(p, model.BSPmLinear(m, l), cfg)
		problems.ListRankContractBSP(gb, list)
		predL := lower.ListRankLBg(p, g)
		predG := lower.ListRankBSPm(p, m, l)
		row(p, "BSP(g)", lb.Time(), predL, lb.Time()/predL, "")
		row(p, "BSP(m)", gb.Time(), predG, gb.Time()/predG,
			ratioStr(lb.Time(), gb.Time()))

		lq := newQSM(p, 3*p, model.QSMg(g), cfg)
		problems.ListRankContractQSM(lq, list)
		gq := newQSM(p, 3*p, model.QSMmLinear(m), cfg)
		problems.ListRankContractQSM(gq, list)
		predQG := lower.ListRankQSMm(p, m)
		row(p, "QSM(g)", lq.Time(), predL, lq.Time()/predL, "")
		row(p, "QSM(m)", gq.Time(), predQG, gq.Time()/predQG,
			ratioStr(lq.Time(), gq.Time()))
	})
	rec.Emit(t)
}

func runSortRow(rec *Recorder) {
	cfg := rec.Cfg
	g, l := rec.Int("g"), rec.Int("l")
	ps := rec.IntSweep("p", []int{512, 1024, 4096}, []int{128, 512})
	t := tablefmt.New(fmt.Sprintf("sorting n=p keys (columnsort): measured vs predicted (g=%d, m=p/g, L=%d)", g, l),
		"n=p", "model", "q", "measured", "predicted", "ratio", "separation")
	rec.Rows(t, len(ps), func(i int, row func(...any)) {
		p := ps[i]
		m := max(p/g, 1)
		q := problems.Depth1Sorters(p, p)
		keys := sortKeys(cfg.Seed, p)

		lb := newBSP(p, model.BSPg(g, l), cfg)
		problems.ColumnsortBSP(lb, keys, q)
		gb := newBSP(p, model.BSPmLinear(m, l), cfg)
		problems.ColumnsortBSP(gb, keys, q)
		predL := lower.SortLBg(p, g)
		predG := lower.SortBSPm(p, m, l)
		row(p, "BSP(g)", q, lb.Time(), predL, lb.Time()/predL, "")
		row(p, "BSP(m)", q, gb.Time(), predG, gb.Time()/predG,
			ratioStr(lb.Time(), gb.Time()))

		lq := newQSM(p, p, model.QSMg(g), cfg)
		problems.ColumnsortQSM(lq, keys, q)
		gq := newQSM(p, p, model.QSMmLinear(m), cfg)
		problems.ColumnsortQSM(gq, keys, q)
		predQG := lower.SortQSMm(p, m)
		row(p, "QSM(g)", q, lq.Time(), predL, lq.Time()/predL, "")
		row(p, "QSM(m)", q, gq.Time(), predQG, gq.Time()/predQG,
			ratioStr(lq.Time(), gq.Time()))
	})
	rec.Emit(t)
}

// ratioStr formats the local/global separation factor.
func ratioStr(local, global float64) string {
	if global == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", local/global)
}
