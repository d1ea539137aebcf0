package harness

import (
	"fmt"

	"parbw/internal/async"
	"parbw/internal/bsp"
	"parbw/internal/collective"
	"parbw/internal/dynamic"
	"parbw/internal/emulate"
	"parbw/internal/model"
	"parbw/internal/netsim"
	"parbw/internal/problems"
	"parbw/internal/sched"
	"parbw/internal/tablefmt"
	"parbw/internal/work"
	"parbw/internal/xrand"
)

func init() {
	register(Experiment{
		ID:     "sched/qsm-static",
		Title:  "Unbalanced-Send on the QSM(m) (the paper's reader exercise)",
		Source: "Section 6 intro: \"the same techniques ... for the QSM(m)\"",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (64 full, 32 quick)").Range(0, 1<<20),
			IntParam("m", 0, "0 = built-in aggregate bandwidth (16 full, 8 quick)").Range(0, 1<<16),
			IntParam("blk", 64, "per-processor address block size").Range(1, 1<<16),
			FloatParam("eps", 0.25, "schedule slack ε").Range(0.001, 8),
		},
		run: runSchedQSM,
	})
	register(Experiment{
		ID:     "emul/pram-map",
		Title:  "Generic EREW-PRAM → QSM(m) mapping, O(n/m + t + w/m)",
		Source: "Section 4 observation",
		Params: []ParamSpec{
			IntParam("n", 0, "0 = built-in input size (512 full, 128 quick)").Range(0, 1<<20),
			IntParam("m", 0, "0 = built-in bandwidth sweep; >0 runs one m").Range(0, 1<<16),
		},
		run: runPRAMMap,
	})
	register(Experiment{
		ID:     "dyn/phase",
		Title:  "Dynamic stability phase diagram over (α, β)",
		Source: "Theorems 6.5 and 6.7 combined",
		Params: []ParamSpec{
			IntParam("p", 16, "processors").Range(2, 1<<16),
			IntParam("g", 8, "per-processor gap of the BSP(g)").Range(1, 1<<16),
			IntParam("l", 4, "latency/periodicity floor L").Range(0, 1<<16),
			IntParam("windows", 0, "0 = built-in horizon (100 full, 30 quick)").Range(0, 1<<20),
		},
		run: runDynPhase,
	})
	register(Experiment{
		ID:     "coll/pipeline",
		Title:  "Pipelined k-item broadcast and gather",
		Source: "collective machinery behind the Table 1 primitives",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (256 full, 64 quick)").Range(0, 1<<20),
			IntParam("l", 4, "latency/periodicity floor L").Range(0, 1<<16),
			IntParam("k", 0, "0 = built-in sweep over item counts; >0 runs one k").Range(0, 1<<16),
			IntParam("m", 32, "aggregate bandwidth of the BSP(m) variant").Range(1, 1<<16),
			IntParam("g", 8, "per-processor gap of the BSP(g) variant").Range(1, 1<<16),
		},
		run: runPipeline,
	})
}

func runSchedQSM(rec *Recorder) {
	cfg := rec.Cfg
	p, mm, blk := rec.IntOr("p", 64, 32), rec.IntOr("m", 16, 8), rec.Int("blk")
	eps := rec.Float("eps")
	t := tablefmt.New("QSM(m) write scheduling: Unbalanced-Send vs naive (exp penalty)",
		"skew", "n", "x̄", "scheduled", "naive", "naive/sched", "maxslot", "m")
	skews := []float64{0, 0.8, 1.4}
	rec.Rows(t, len(skews), func(i int, row func(...any)) {
		skew := skews[i]
		rng := xrand.New(cfg.Seed)
		plan := qsmZipfPlan(rng, p, p*30, blk, skew)
		ms := newQSMmMem(p, p*blk, expQSMm(mm), cfg)
		rs := sched.UnbalancedSendQSM(ms, plan, sched.Options{Eps: eps})
		mn := newQSMmMem(p, p*blk, expQSMm(mm), cfg)
		rn := sched.NaiveSendQSM(mn, plan)
		row(fmt.Sprintf("zipf %.1f", skew), rs.N, rs.XBar, rs.Time, rn.Time,
			rn.Time/rs.Time, rs.Phase.MaxSlot, mm)
	})
	rec.Emit(t)
}

// qsmZipfPlan mirrors the test generator: disjoint per-processor address
// blocks with Zipf-skewed counts.
func qsmZipfPlan(rng *xrand.Source, p, n, blk int, skew float64) sched.QSMPlan {
	plan := make(sched.QSMPlan, p)
	z := xrand.NewZipf(rng, p, skew)
	count := make([]int, p)
	for k := 0; k < n; k++ {
		i := z.Draw()
		if count[i] >= blk {
			continue
		}
		plan[i] = append(plan[i], sched.QSMWrite{Addr: i*blk + count[i], Val: int64(k)})
		count[i]++
	}
	return plan
}

func expQSMm(mm int) (c modelCost) {
	c = qsmmExpCost(mm)
	return c
}

func runPRAMMap(rec *Recorder) {
	cfg := rec.Cfg
	n := rec.IntOr("n", 512, 128)
	t := tablefmt.New("prefix-doubling summation (t=2·lg n steps, w≈2n·lg n) mapped to the QSM(m)",
		"n", "m", "QSM time", "t + w/m", "ratio", "overloads")
	ms := rec.IntSweep("m", []int{2, 4, 8, 16, 32}, []int{2, 8})
	rec.Rows(t, len(ms), func(i int, row func(...any)) {
		mm := ms[i]
		prog, final := emulate.PrefixDoublingSum(n)
		m := newQSMmMem(64, 2*n, qsmmLinCost(mm), cfg)
		for i := 0; i < n; i++ {
			m.Store(i, 1)
		}
		st := emulate.RunPRAMOnQSM(m, prog)
		if m.Load(final()) != int64(n) {
			panic("harness: mapped prefix sum wrong")
		}
		pred := float64(st.Steps) + float64(st.Work)/float64(mm)
		row(n, mm, st.QSMTime, pred, st.QSMTime/pred, st.Overload)
	})
	rec.Emit(t)
}

func runDynPhase(rec *Recorder) {
	cfg := rec.Cfg
	p, g, l := rec.Int("p"), rec.Int("g"), rec.Int("l")
	mm := max(p/g, 1)
	windows := rec.IntOr("windows", 100, 30)
	t := tablefmt.New(fmt.Sprintf("stability phase diagram (p=%d, g=%d, m=%d, uniform adversary; S=stable, U=unstable)", p, g, mm),
		"α \\ β", "0.125", "0.25", "0.5", "1.0")
	alphas := []float64{0.25, 0.5, 1.0, 2.0}
	rec.Rows(t, len(alphas), func(i int, row func(...any)) {
		alpha := alphas[i]
		cells := []any{fmt.Sprintf("%.2f", alpha)}
		for _, beta := range []float64{0.125, 0.25, 0.5, 1.0} {
			if beta > alpha {
				cells = append(cells, "-")
				continue
			}
			lmt := dynamic.Limits{W: 32, Alpha: alpha, Beta: beta}
			advG := dynamic.NewUniformAdversary(p, lmt, cfg.Seed)
			mg := newBSPg(p, g, l, cfg)
			rg := dynamic.RunBSPgInterval(mg, advG, lmt, windows)
			advM := dynamic.NewUniformAdversary(p, lmt, cfg.Seed)
			mb := newBSPmExp(p, mm, l, cfg)
			rm := dynamic.RunAlgorithmB(mb, advM, lmt, windows, 0.25)
			cell := verdictChar(rg.LooksStable()) + "/" + verdictChar(rm.LooksStable())
			cells = append(cells, cell+" (g/m)")
		}
		row(cells...)
	})
	rec.Emit(t)

	t2 := tablefmt.New("single-target flows across the β axis (the Theorem 6.5 witness)",
		"β", "BSP(g) verdict", "BSP(m) verdict")
	betas := []float64{0.0625, 0.125, 0.25, 0.5, 1.0}
	rec.Rows(t2, len(betas), func(i int, row func(...any)) {
		beta := betas[i]
		lmt := dynamic.Limits{W: 32, Alpha: beta, Beta: beta}
		adv := dynamic.SingleTargetAdversary{L: lmt}
		mg := newBSPg(p, g, l, cfg)
		rg := dynamic.RunBSPgInterval(mg, adv, lmt, windows)
		mb := newBSPmExp(p, mm, l, cfg)
		rm := dynamic.RunAlgorithmB(mb, adv, lmt, windows, 0.25)
		row(beta, stableStr(rg.LooksStable()), stableStr(rm.LooksStable()))
	})
	rec.Emit(t2)
}

func verdictChar(stable bool) string {
	if stable {
		return "S"
	}
	return "U"
}

func runPipeline(rec *Recorder) {
	cfg := rec.Cfg
	p, l := rec.IntOr("p", 256, 64), rec.Int("l")
	mm, g := rec.Int("m"), rec.Int("g")
	t := tablefmt.New("k-item pipelined broadcast: pipelined vs k sequential broadcasts",
		"model", "k", "pipelined", "sequential", "speedup")
	ks := rec.IntSweep("k", []int{8, 32, 128}, []int{8})
	// Cell i is item count ks[i/2] on the BSP(g) (even i) or the BSP(m).
	rec.Rows(t, 2*len(ks), func(i int, row func(...any)) {
		k, global := ks[i/2], i%2 == 1
		name := fmt.Sprintf("BSP(g=%d)", g)
		mk := func() *bsp.Machine { return newBSPg(p, g, l, cfg) }
		if global {
			name = fmt.Sprintf("BSP(m=%d)", mm)
			mk = func() *bsp.Machine { return newBSPmL(p, mm, l, cfg) }
		}
		mp := mk()
		collectiveBroadcastVec(mp, make([]int64, k))
		msq := mk()
		for j := 0; j < k; j++ {
			collectiveBroadcast(msq, int64(j))
		}
		row(name, k, mp.Time(), msq.Time(), msq.Time()/mp.Time())
	})
	rec.Emit(t)
}

// modelCost aliases keep extexp.go's helper signatures short.
type modelCost = model.Cost

func qsmmExpCost(mm int) model.Cost { return model.QSMm(mm) }

func qsmmLinCost(mm int) model.Cost {
	c := model.QSMm(mm)
	c.Penalty = model.LinearPenalty
	return c
}

func collectiveBroadcastVec(m *bsp.Machine, vec []int64) { collective.BroadcastVecBSP(m, 0, vec) }
func collectiveBroadcast(m *bsp.Machine, v int64)        { collective.BroadcastBSP(m, 0, v) }

func init() {
	register(Experiment{
		ID:     "ablation/sort",
		Title:  "Sorting: splitter-free columnsort vs sample sort across n/p",
		Source: "DESIGN.md ablation; Table 1 row 5 machinery",
		Params: []ParamSpec{
			IntParam("n", 0, "0 = built-in sweeps over key counts; >0 runs one n in both regimes").Range(0, 1<<20),
			IntParam("p", 32, "processors of the n ≫ p regime").Range(2, 1<<16),
			IntParam("m", 8, "aggregate bandwidth of the BSP(m)").Range(1, 1<<16),
			IntParam("l", 2, "latency/periodicity floor L").Range(0, 1<<16),
		},
		run: runSortAblation,
	})
	register(Experiment{
		ID:     "sched/template",
		Title:  "Template schedules: enforced separation between a processor's sends",
		Source: "Section 6.1 closing remark (sending-pattern templates)",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (128 full, 32 quick)").Range(0, 1<<20),
			IntParam("m", 0, "0 = built-in aggregate bandwidth (32 full, 8 quick)").Range(0, 1<<16),
			IntParam("l", 4, "latency/periodicity floor L").Range(0, 1<<16),
			FloatParam("eps", 0.25, "schedule slack ε").Range(0.001, 8),
		},
		run: runTemplate,
	})
}

func runSortAblation(rec *Recorder) {
	cfg := rec.Cfg
	// depth1Q returns the largest power-of-two sorter count admitting a
	// depth-1 columnsort (the favourable shape).
	depth1Q := func(n, p int) int {
		q := 1
		for q*2 <= p && q*2 <= n && n/(q*2) >= 2*(q*2-1)*(q*2-1) {
			q *= 2
		}
		return q
	}

	// Regime 1: n ≫ p. Sample sort's p² splitter traffic amortizes and its
	// single routing round beats columnsort's 8-step schedule.
	p, mm, l := rec.Int("p"), rec.Int("m"), rec.Int("l")
	t := tablefmt.New(fmt.Sprintf("n ≫ p regime: columnsort vs sample sort on BSP(m=%d), p=%d", mm, p),
		"n", "n/p", "columnsort", "sample sort", "winner")
	ns := rec.IntSweep("n", []int{1024, 4096, 16384}, []int{256, 1024})
	rec.Rows(t, len(ns), func(i int, row func(...any)) {
		n := ns[i]
		keys := sortKeys(cfg.Seed, n)
		q := depth1Q(n, p)
		mc := newBSPmL(p, mm, l, cfg)
		problemsColumnsort(mc, keys, q)
		ms := newBSPmL(p, mm, l, cfg)
		problemsSampleSort(ms, keys)
		row(n, n/p, mc.Time(), ms.Time(), sortWinner(mc.Time(), ms.Time()))
	})
	rec.Emit(t)

	// Regime 2: n = p (Table 1). Every processor holds ONE key, so sample
	// sort's splitter broadcast moves p·(p−1) words — Θ(p²/m) — while
	// splitter-free columnsort stays near n/m. This is why the paper's
	// sorting algorithm is columnsort.
	t2 := tablefmt.New(fmt.Sprintf("n = p regime (Table 1): columnsort vs sample sort on BSP(m=%d)", mm),
		"n = p", "columnsort", "sample sort", "samplesort/columnsort", "winner")
	nps := rec.IntSweep("n", []int{1024, 4096}, []int{512})
	rec.Rows(t2, len(nps), func(i int, row func(...any)) {
		n := nps[i]
		keys := sortKeys(cfg.Seed, n)
		q := depth1Q(n, n)
		mc := newBSPmL(n, mm, l, cfg)
		problemsColumnsort(mc, keys, q)
		ms := newBSPmL(n, mm, l, cfg)
		problemsSampleSort(ms, keys)
		row(n, mc.Time(), ms.Time(), ms.Time()/mc.Time(), sortWinner(mc.Time(), ms.Time()))
	})
	rec.Emit(t2)
}

// sortKeys draws n sort keys from a fresh source seeded with seed, so every
// sort experiment at one (seed, n) sorts the same input.
func sortKeys(seed uint64, n int) []int64 {
	rng := xrand.New(seed)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Uint64() % 1000003)
	}
	return keys
}

func sortWinner(col, smp float64) string {
	if smp < col {
		return "sample sort"
	}
	return "columnsort"
}

func runTemplate(rec *Recorder) {
	cfg := rec.Cfg
	p, mm, l := rec.IntOr("p", 128, 32), rec.IntOr("m", 32, 8), rec.Int("l")
	eps := rec.Float("eps")
	rng := xrand.New(cfg.Seed)
	plan := sched.ZipfPlan(rng, p, p*20, 1.0)
	t := tablefmt.New("Unbalanced-Send with per-processor separation sep (zipf workload)",
		"sep", "period", "measured", "offline opt", "maxslot", "overloads")
	seps := []int{0, 1, 2, 4}
	rec.Rows(t, len(seps), func(i int, row func(...any)) {
		sep := seps[i]
		m := newBSPmExp(p, mm, l, cfg)
		r := sched.TemplateSend(m, plan, sep, sched.Options{Eps: eps})
		row(sep, r.Period, r.Time, r.OptimalOffline(mm, l), r.Send.MaxSlot, r.Send.Overload)
	})
	rec.Emit(t)
}

func problemsColumnsort(m *bsp.Machine, keys []int64, q int) { problems.ColumnsortBSP(m, keys, q) }
func problemsSampleSort(m *bsp.Machine, keys []int64)        { problems.SampleSortBSP(m, keys, 8) }

func init() {
	register(Experiment{
		ID:     "validate/channels",
		Title:  "Grounding f^u: schedules on a concrete m-channel contention network",
		Source: "Section 2 penalty discussion + Section 3 multiple-channel comparison",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in source count (64 full, 32 quick)").Range(0, 1<<20),
			IntParam("per", 0, "0 = built-in per-source load (16 full, 8 quick)").Range(0, 1<<16),
			IntParam("m", 0, "0 = built-in channel sweep; >0 runs one m").Range(0, 1<<16),
		},
		run: runChannels,
	})
}

func runChannels(rec *Recorder) {
	cfg := rec.Cfg
	p := rec.IntOr("p", 64, 32)
	per := rec.IntOr("per", 16, 8)
	x := make([]int, p)
	for i := range x {
		x[i] = per
	}
	n := p * per
	t := tablefmt.New("m-channel slotted-ALOHA network: paced vs burst vs backoff makespan (uniform x_i)",
		"m", "n", "paced (ε=4)", "burst", "burst+backoff", "burst/paced", "n/(m/e) ideal")
	// The network stream must differ from the schedule stream below while all
	// three runs share one network seed so makespans stay comparable.
	netSeed := xrand.Derive(cfg.Seed, "net/channels").Uint64()
	ms := rec.IntSweep("m", []int{4, 8, 16}, []int{8})
	rec.Rows(t, len(ms), func(i int, row func(...any)) {
		mm := ms[i]
		rng := xrand.New(cfg.Seed)
		eps := 4.0 // target load 0.2·m < ALOHA capacity m/e
		paced := netsim.Run(netsim.Config{Sources: p, Channels: mm, Seed: netSeed},
			netsim.UnbalancedSchedule(rng, x, mm, eps))
		burst := netsim.Run(netsim.Config{Sources: p, Channels: mm, Seed: netSeed},
			netsim.NaiveSchedule(x))
		backoff := netsim.RunBackoff(netsim.Config{Sources: p, Channels: mm, Seed: netSeed},
			netsim.NaiveSchedule(x), 10)
		ideal := float64(n) / (float64(mm) / 2.718281828)
		row(mm, n, paced.Makespan, burst.Makespan, backoff.Makespan,
			float64(burst.Makespan)/float64(paced.Makespan), ideal)
	})
	rec.Emit(t)

	t2 := tablefmt.New("throughput collapse: expected deliveries/step vs contenders (m=8)",
		"contenders k", "k/m", "E[deliveries] k(1−1/m)^{k−1}", "f^u charge e^{k/m−1}")
	for _, k := range []int{2, 8, 16, 32, 64} {
		t2.Row(k, float64(k)/8, netsim.ExpectedThroughput(k, 8), model.ExpPenalty(k, 8))
	}
	rec.Emit(t2)
}

func init() {
	register(Experiment{
		ID:     "ablation/combinetree",
		Title:  "Combine-tree fan-in for the τ term: binary vs L-ary",
		Source: "DESIGN.md ablation; τ = O(p/m + L + L·lg m/lg L)",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (4096 full, 512 quick)").Range(0, 1<<20),
		},
		run: runCombineTree,
	})
	register(Experiment{
		ID:     "ablation/wraparound",
		Title:  "Cyclic (wraparound) vs consecutive slot assignment",
		Source: "DESIGN.md ablation; Theorems 6.2 vs 6.3",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (256 full, 64 quick)").Range(0, 1<<20),
			IntParam("m", 0, "0 = built-in aggregate bandwidth (32 full, 8 quick)").Range(0, 1<<16),
			IntParam("l", 4, "latency/periodicity floor L").Range(0, 1<<16),
			FloatParam("eps", 0.25, "schedule slack ε").Range(0.001, 8),
		},
		run: runWraparound,
	})
}

func runCombineTree(rec *Recorder) {
	cfg := rec.Cfg
	p := rec.IntOr("p", 4096, 512)
	t := tablefmt.New("reduction on BSP(m): τ vs tree fan-in d (L-ary is the paper's choice)",
		"m", "L", "d=2", "d=4", "d=L", "L-ary speedup vs binary")
	mls := [][2]int{{64, 16}, {256, 16}, {64, 64}}
	rec.Rows(t, len(mls), func(i int, row func(...any)) {
		mm, l := mls[i][0], mls[i][1]
		vals := make([]int64, p)
		for i := range vals {
			vals[i] = 1
		}
		run := func(d int) float64 {
			m := newBSPmL(p, mm, l, cfg)
			if got := collective.ReduceBSPDegree(m, vals, collective.Sum, d); got != int64(p) {
				panic("harness: reduce wrong")
			}
			return m.Time()
		}
		d2, d4, dl := run(2), run(4), run(l)
		row(mm, l, d2, d4, dl, d2/dl)
	})
	rec.Emit(t)
}

func runWraparound(rec *Recorder) {
	cfg := rec.Cfg
	p, mm, l := rec.IntOr("p", 256, 64), rec.IntOr("m", 32, 8), rec.Int("l")
	eps := rec.Float("eps")
	t := tablefmt.New("wraparound (Thm 6.2) vs consecutive (Thm 6.3) slot assignment",
		"workload", "wraparound time", "consecutive time", "consec/wrap", "wrap maxslot", "consec maxslot")
	rng := xrand.New(cfg.Seed)
	for _, name := range workloadOrder {
		plan := workloads(rng, p, 16)[name]
		mw := newBSPmExp(p, mm, l, cfg)
		rw := sched.UnbalancedSend(mw, plan, sched.Options{Eps: eps})
		mc := newBSPmExp(p, mm, l, cfg)
		rc := sched.UnbalancedConsecutiveSend(mc, plan, sched.Options{Eps: eps})
		t.Row(name, rw.Time, rc.Time, rc.Time/rw.Time, rw.Send.MaxSlot, rc.Send.MaxSlot)
	}
	rec.Emit(t)
}

func init() {
	register(Experiment{
		ID:     "async/backpressure",
		Title:  "Asynchronous BSP(m): flow control replaces explicit scheduling",
		Source: "Section 1 remark (\"many of our results extend to more asynchronous models\")",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (128 full, 32 quick)").Range(0, work.MaxP),
			IntParam("m", 16, "aggregate bandwidth of the BSP(m)").Range(1, 1<<16),
			IntParam("l", 4, "latency/periodicity floor L").Range(0, 1<<16),
			IntParam("per", 0, "0 = built-in per-processor load (32 full, 8 quick)").Range(0, 1<<16),
		},
		run: runAsync,
	})
}

func runAsync(rec *Recorder) {
	cfg := rec.Cfg
	p, mm, l := rec.IntOr("p", 128, 32), rec.Int("m"), rec.Int("l")
	per := rec.IntOr("per", 32, 8)
	t := tablefmt.New("the same oblivious burst on three machines (uniform, per-proc load)",
		"machine", "completion", "x-of-offline-bound")
	n := p * per

	// 1. Bulk-synchronous BSP(m) with exponential penalty, naive injection.
	b := work.NewBuilder(p, mm, l).Family("async/burst").Seed(cfg.Seed)
	b.Step()
	for i := 0; i < p; i++ {
		for k := 0; k < per; k++ {
			b.Send(i, (i+1+k)%p, 1)
		}
	}
	plan := sched.Plan(b.MustIR().Rows(0))
	mb := newBSPmExp(p, mm, l, cfg)
	rNaive := sched.NaiveSend(mb, plan)
	opt := rNaive.OptimalOffline(mm, l)
	t.Row("bulk-sync naive (f^u)", rNaive.Time, rNaive.Time/opt)

	// 2. Bulk-synchronous BSP(m) with Unbalanced-Send.
	ms := newBSPmExp(p, mm, l, cfg)
	rSched := sched.UnbalancedSend(ms, plan, sched.Options{Eps: 0.25, KnownN: n})
	t.Row("bulk-sync Unbalanced-Send", rSched.Time, rSched.Time/opt)

	// 3. Asynchronous machine with token-bucket backpressure, naive
	// injection: the flow control self-schedules.
	ma := async.New(async.Config{P: p, M: mm, Latency: float64(l)})
	done := ma.Run(func(pr *async.Proc) {
		for k := 0; k < per; k++ {
			pr.Send((pr.ID()+1+k)%p, int64(k))
		}
		for k := 0; k < per; k++ {
			pr.Recv()
		}
	})
	t.Row("async naive (backpressure)", done, done/opt)
	rec.Emit(t)
}
