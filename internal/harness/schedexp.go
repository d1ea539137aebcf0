package harness

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/lower"
	"parbw/internal/sched"
	"parbw/internal/tablefmt"
	"parbw/internal/xrand"
)

func init() {
	register(Experiment{
		ID:     "sched/static",
		Title:  "Unbalanced-Send on skewed h-relations",
		Source: "Theorem 6.2 and Proposition 6.1",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (256 full, 64 quick)").Range(0, 1<<20),
			IntParam("m", 0, "0 = built-in aggregate bandwidth (64 full, 16 quick)").Range(0, 1<<16),
			IntParam("l", 8, "latency/periodicity floor L").Range(0, 1<<16),
			FloatParam("eps", 0.25, "schedule slack ε of Theorem 6.2").Range(0.001, 8),
		},
		run: runSchedStatic,
	})
	register(Experiment{
		ID:     "sched/consecutive",
		Title:  "Unbalanced-Consecutive-Send",
		Source: "Theorem 6.3",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (256 full, 64 quick)").Range(0, 1<<20),
			IntParam("m", 0, "0 = built-in aggregate bandwidth (32 full, 8 quick)").Range(0, 1<<16),
			IntParam("l", 4, "latency/periodicity floor L").Range(0, 1<<16),
			FloatParam("eps", 0.25, "schedule slack ε").Range(0.001, 8),
		},
		run: runSchedConsecutive,
	})
	register(Experiment{
		ID:     "sched/granular",
		Title:  "Unbalanced-Granular-Send",
		Source: "Theorem 6.4",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (512 full, 128 quick)").Range(0, 1<<20),
			IntParam("m", 0, "0 = built-in aggregate bandwidth (16 full, 8 quick)").Range(0, 1<<16),
			IntParam("l", 4, "latency/periodicity floor L").Range(0, 1<<16),
			IntParam("c", 4, "period constant c of the granular schedule").Range(1, 64),
		},
		run: runSchedGranular,
	})
	register(Experiment{
		ID:     "sched/flits",
		Title:  "Long messages (consecutive flits) and per-message overhead o",
		Source: "Section 6.1 (final remarks)",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (128 full, 32 quick)").Range(0, 1<<20),
			IntParam("m", 0, "0 = built-in aggregate bandwidth (32 full, 8 quick)").Range(0, 1<<16),
			IntParam("l", 4, "latency/periodicity floor L").Range(0, 1<<16),
			FloatParam("eps", 0.25, "schedule slack ε").Range(0.001, 8),
		},
		run: runSchedFlits,
	})
	register(Experiment{
		ID:     "sched/selfsched",
		Title:  "Self-scheduling BSP(m) realized on the BSP(m)",
		Source: "Section 2 (simplified cost metric) + Theorem 6.2",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (256 full, 64 quick)").Range(0, 1<<20),
			IntParam("m", 0, "0 = built-in aggregate bandwidth (64 full, 16 quick)").Range(0, 1<<16),
			IntParam("l", 4, "latency/periodicity floor L").Range(0, 1<<16),
			FloatParam("eps", 0.25, "schedule slack ε / (1+ε) ratio target").Range(0.001, 8),
		},
		run: runSelfSched,
	})
	register(Experiment{
		ID:     "ablation/penalty",
		Title:  "Value of scheduling under linear vs exponential penalty",
		Source: "DESIGN.md ablation; Section 2 penalty discussion",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (256 full, 64 quick)").Range(0, 1<<20),
			IntParam("m", 0, "0 = built-in aggregate bandwidth (16 full, 8 quick)").Range(0, 1<<16),
			IntParam("l", 4, "latency/periodicity floor L").Range(0, 1<<16),
			FloatParam("eps", 0.25, "schedule slack ε").Range(0.001, 8),
		},
		run: runPenaltyAblation,
	})
	register(Experiment{
		ID:     "ablation/eps",
		Title:  "ε sweep: overload probability vs schedule slack",
		Source: "Theorem 6.2's Chernoff analysis",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (256 full, 64 quick)").Range(0, 1<<20),
			IntParam("m", 0, "0 = built-in bandwidth sweep; >0 runs one m").Range(0, 1<<16),
			IntParam("l", 4, "latency/periodicity floor L").Range(0, 1<<16),
		},
		run: runEpsAblation,
	})
}

// workloads returns the named skew shapes of Section 6's motivation.
func workloads(rng *xrand.Source, p, scale int) map[string]sched.Plan {
	return map[string]sched.Plan{
		"uniform":  sched.UniformPlan(rng, p, scale),
		"zipf":     sched.ZipfPlan(rng, p, p*scale, 1.2),
		"halfhalf": sched.HalfHalfPlan(rng, p, 2*scale, scale/4+1),
		"point":    sched.PointPlan(p, p*scale/4),
	}
}

var workloadOrder = []string{"uniform", "zipf", "halfhalf", "point"}

func runSchedStatic(rec *Recorder) {
	cfg := rec.Cfg
	p, mm, l := rec.IntOr("p", 256, 64), rec.IntOr("m", 64, 16), rec.Int("l")
	g := max(p/mm, 1)
	eps := rec.Float("eps")
	rng := xrand.New(cfg.Seed)
	t := tablefmt.New("Unbalanced-Send vs offline optimum and BSP(g) (p=256, m=64, exp penalty)",
		"workload", "n", "x̄", "ȳ", "measured", "offline opt", "Thm6.2 bound", "BSP(g) Θ(g(x̄+ȳ))", "maxslot", "overloads")
	for _, name := range workloadOrder {
		plan := workloads(rng, p, 16)[name]
		m := newBSPmExp(p, mm, l, cfg)
		r := sched.UnbalancedSend(m, plan, sched.Options{Eps: eps})
		opt := r.OptimalOffline(mm, l)
		bound := lower.UnbalancedSendBound(r.N, r.XBar, r.YBar, p, mm, l, eps)
		bspg := lower.RoutingBSPg(r.XBar, r.YBar, g, l)
		t.Row(name, r.N, r.XBar, r.YBar, r.Time, opt, bound, bspg, r.Send.MaxSlot, r.Send.Overload)
	}
	rec.Emit(t)
}

func runSchedConsecutive(rec *Recorder) {
	cfg := rec.Cfg
	p, mm, l := rec.IntOr("p", 256, 64), rec.IntOr("m", 32, 8), rec.Int("l")
	eps := rec.Float("eps")
	rng := xrand.New(cfg.Seed)
	t := tablefmt.New("Unbalanced-Consecutive-Send (all flits of a sender contiguous)",
		"workload", "n", "x̄", "measured", "Thm6.3 bound", "maxslot", "overloads")
	for _, name := range workloadOrder {
		plan := workloads(rng, p, 8)[name]
		m := newBSPmExp(p, mm, l, cfg)
		r := sched.UnbalancedConsecutiveSend(m, plan, sched.Options{Eps: eps})
		// x̄' = max over non-overloaded senders; conservatively x̄.
		bound := lower.ConsecutiveSendBound(r.N, r.XBar, minInt(r.XBar, r.Period), r.YBar, p, mm, l, eps)
		t.Row(name, r.N, r.XBar, r.Time, bound, r.Send.MaxSlot, r.Send.Overload)
	}
	rec.Emit(t)
}

func runSchedGranular(rec *Recorder) {
	cfg := rec.Cfg
	p, mm, l := rec.IntOr("p", 512, 128), rec.IntOr("m", 16, 8), rec.Int("l")
	c := rec.Int("c")
	rng := xrand.New(cfg.Seed)
	t := tablefmt.New(fmt.Sprintf("Unbalanced-Granular-Send (granularity t' = n/p, period c·n/m, c=%d)", c),
		"workload", "n", "t'", "measured", "c·n/m + x̄", "maxslot", "overloads")
	for _, name := range workloadOrder {
		plan := workloads(rng, p, 8)[name]
		m := newBSPmExp(p, mm, l, cfg)
		r := sched.UnbalancedGranularSend(m, plan, sched.Options{GranularC: float64(c)})
		tg := r.N / p
		if tg < 1 {
			tg = 1
		}
		bound := float64(c)*float64(r.N)/float64(mm) + float64(r.XBar) + r.Tau
		t.Row(name, r.N, tg, r.Time, bound, r.Send.MaxSlot, r.Send.Overload)
	}
	rec.Emit(t)
}

func runSchedFlits(rec *Recorder) {
	cfg := rec.Cfg
	p, mm, l := rec.IntOr("p", 128, 32), rec.IntOr("m", 32, 8), rec.Int("l")
	eps := rec.Float("eps")
	rng := xrand.New(cfg.Seed)
	base := sched.UnbalancedExchangePlan(rng, p, 6) // lengths 1..6
	t := tablefmt.New("long messages and startup overhead o (unbalanced total exchange, ℓ ≤ 6)",
		"o", "n (flits)", "ℓ̂", "measured", "(1+ε)(1+o/ℓ̄)n/m + ℓ̂ + o + τ")
	_, n0, _ := base.Flits(p)
	msgs := 0
	for _, ms := range base {
		msgs += len(ms)
	}
	lbar := float64(n0) / float64(msgs)
	overheads := []int{0, 1, 2, 4, 8}
	rec.Rows(t, len(overheads), func(i int, row func(...any)) {
		o := overheads[i]
		plan := base.WithOverhead(o)
		m := newBSPmExp(p, mm, l, cfg)
		r := sched.UnbalancedSend(m, plan, sched.Options{Eps: eps})
		lhat := plan.MaxLen()
		bound := (1+eps)*(1+float64(o)/lbar)*float64(n0)/float64(mm) +
			float64(lhat) + float64(o) + r.Tau
		row(o, r.N, lhat, r.Time, bound)
	})
	rec.Emit(t)
}

func runSelfSched(rec *Recorder) {
	cfg := rec.Cfg
	p, mm, l := rec.IntOr("p", 256, 64), rec.IntOr("m", 64, 16), rec.Int("l")
	eps := rec.Float("eps")
	rng := xrand.New(cfg.Seed)
	t := tablefmt.New("self-scheduling BSP(m) metric vs realized BSP(m) schedule",
		"workload", "self-sched time", "BSP(m) measured", "ratio", "(1+ε) target")
	for _, name := range workloadOrder {
		plan := workloads(rng, p, 16)[name]
		ss := newBSPSelfSched(p, mm, l, cfg)
		ssr := sched.NaiveSend(ss, plan) // metric ignores injection times
		real := newBSPmExp(p, mm, l, cfg)
		rr := sched.UnbalancedSend(real, plan, sched.Options{Eps: eps, KnownN: ssr.N})
		t.Row(name, ssr.Time, rr.Time, rr.Time/ssr.Time, 1+eps)
	}
	rec.Emit(t)
}

func runPenaltyAblation(rec *Recorder) {
	cfg := rec.Cfg
	p, mm, l := rec.IntOr("p", 256, 64), rec.IntOr("m", 16, 8), rec.Int("l")
	eps := rec.Float("eps")
	rng := xrand.New(cfg.Seed)
	plan := sched.UniformPlan(rng, p, 32)
	t := tablefmt.New("naive (all inject at step 0) vs Unbalanced-Send under both penalties",
		"penalty", "naive time", "scheduled time", "naive/scheduled")
	type pen struct {
		name string
		mk   func() *bsp.Machine
	}
	pens := []pen{
		{"linear f^ℓ", func() *bsp.Machine { return newBSPmL(p, mm, l, cfg) }},
		{"exponential f^u", func() *bsp.Machine { return newBSPmExp(p, mm, l, cfg) }},
	}
	rec.Rows(t, len(pens), func(i int, row func(...any)) {
		pc := pens[i]
		naive := sched.NaiveSend(pc.mk(), plan)
		schd := sched.UnbalancedSend(pc.mk(), plan, sched.Options{Eps: eps})
		row(pc.name, naive.Time, schd.Time, naive.Time/schd.Time)
	})
	rec.Emit(t)
}

func runEpsAblation(rec *Recorder) {
	cfg := rec.Cfg
	p, l := rec.IntOr("p", 256, 64), rec.Int("l")
	rng := xrand.New(cfg.Seed)
	t := tablefmt.New("ε sweep: slack vs overload (zipf workload, exp penalty)",
		"m", "ε", "period", "measured", "offline opt", "maxslot", "overloads")
	for _, mm := range rec.IntSweep("m", []int{16, 64}, []int{16}) {
		plan := sched.ZipfPlan(rng, p, p*16, 1.1)
		for _, eps := range []float64{0.05, 0.1, 0.25, 0.5, 1.0} {
			m := newBSPmExp(p, mm, l, cfg)
			r := sched.UnbalancedSend(m, plan, sched.Options{Eps: eps})
			t.Row(mm, eps, r.Period, r.Time, r.OptimalOffline(mm, l), r.Send.MaxSlot, r.Send.Overload)
		}
	}
	rec.Emit(t)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
