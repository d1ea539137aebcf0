package harness

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/dynamic"
	"parbw/internal/lower"
	"parbw/internal/problems"
	"parbw/internal/queue"
	"parbw/internal/tablefmt"
	"parbw/internal/xrand"
)

func init() {
	register(Experiment{
		ID:     "dyn/bspg",
		Title:  "Dynamic routing stability threshold on the BSP(g)",
		Source: "Theorem 6.5",
		Params: []ParamSpec{
			IntParam("p", 16, "processors").Range(2, 1<<16),
			IntParam("g", 8, "per-processor gap of the BSP(g)").Range(1, 1<<16),
			IntParam("l", 4, "latency/periodicity floor L").Range(0, 1<<16),
			IntParam("windows", 0, "0 = built-in horizon (120 full, 40 quick)").Range(0, 1<<20),
		},
		run: runDynBSPg,
	})
	register(Experiment{
		ID:     "dyn/bspm",
		Title:  "Algorithm B on the BSP(m): stability region and service time",
		Source: "Theorem 6.7 and Claim 6.8",
		Params: []ParamSpec{
			IntParam("p", 32, "processors").Range(2, 1<<16),
			IntParam("m", 8, "aggregate bandwidth of the BSP(m)").Range(1, 1<<16),
			IntParam("l", 2, "latency/periodicity floor L").Range(0, 1<<16),
			IntParam("w", 64, "adversary window length w").Range(4, 1<<16),
			IntParam("windows", 0, "0 = built-in horizon (200 full, 50 quick)").Range(0, 1<<20),
		},
		run: runDynBSPm,
	})
	register(Experiment{
		ID:     "ablation/listrank",
		Title:  "List ranking: pointer jumping vs random-mate contraction",
		Source: "DESIGN.md ablation; Table 1 row 4 machinery",
		Params: []ParamSpec{
			IntParam("n", 0, "0 = built-in sweep over list lengths (n = p)").Range(0, 1<<20),
			IntParam("m", 8, "aggregate bandwidth of the BSP(m)").Range(1, 1<<16),
			IntParam("l", 2, "latency/periodicity floor L").Range(0, 1<<16),
		},
		run: runListRankAblation,
	})
}

func runDynBSPg(rec *Recorder) {
	cfg := rec.Cfg
	p, g, l := rec.Int("p"), rec.Int("g"), rec.Int("l")
	windows := rec.IntOr("windows", 120, 40)
	t := tablefmt.New(fmt.Sprintf("BSP(g) interval router, single-source flow (g=%d, threshold 1/g = %g)", g, 1/float64(g)),
		"β", "β·g", "stable?", "final backlog", "max backlog")
	betas := []float64{0.0625, 0.125, 0.25, 0.5, 1.0}
	rec.Rows(t, len(betas), func(i int, row func(...any)) {
		beta := betas[i]
		lmt := dynamic.Limits{W: 32, Alpha: beta, Beta: beta}
		adv := dynamic.SingleTargetAdversary{L: lmt}
		m := newBSPg(p, g, l, cfg)
		res := dynamic.RunBSPgInterval(m, adv, lmt, windows)
		row(beta, beta*float64(g), stableStr(res.LooksStable()),
			res.Backlog[len(res.Backlog)-1], res.MaxBacklog)
	})
	rec.Emit(t)

	t2 := tablefmt.New(fmt.Sprintf("same flows on the BSP(m), m = p/g = %d (Algorithm B)", max(p/g, 1)),
		"β", "stable?", "final backlog", "max backlog")
	mBetas := []float64{0.25, 0.5, 1.0}
	rec.Rows(t2, len(mBetas), func(i int, row func(...any)) {
		beta := mBetas[i]
		lmt := dynamic.Limits{W: 32, Alpha: beta, Beta: beta}
		adv := dynamic.SingleTargetAdversary{L: lmt}
		m := newBSPmExp(p, max(p/g, 1), l, cfg)
		res := dynamic.RunAlgorithmB(m, adv, lmt, windows, 0.25)
		row(beta, stableStr(res.LooksStable()),
			res.Backlog[len(res.Backlog)-1], res.MaxBacklog)
	})
	rec.Emit(t2)

	// Corollary 6.6: no algorithm is stable on the BSP(g) above total rate
	// p/g, even with perfectly balanced (uniform) traffic.
	t3 := tablefmt.New(fmt.Sprintf("Corollary 6.6: BSP(g) total-rate ceiling p/g = %d (uniform adversary)", max(p/g, 1)),
		"α (total rate)", "α·g/p", "stable?", "max backlog")
	alphas := []float64{1, 2, 3, 4}
	rec.Rows(t3, len(alphas), func(i int, row func(...any)) {
		alpha := alphas[i]
		lmt := dynamic.Limits{W: 32, Alpha: alpha, Beta: alpha / float64(p) * 4}
		adv := dynamic.NewUniformAdversary(p, lmt, cfg.Seed)
		m := newBSPg(p, g, l, cfg)
		res := dynamic.RunBSPgInterval(m, adv, lmt, windows)
		row(alpha, alpha*float64(g)/float64(p), stableStr(res.LooksStable()), res.MaxBacklog)
	})
	rec.Emit(t3)
}

func runDynBSPm(rec *Recorder) {
	cfg := rec.Cfg
	p, mm, l := rec.Int("p"), rec.Int("m"), rec.Int("l")
	windows := rec.IntOr("windows", 200, 50)
	wW := rec.Int("w")
	t := tablefmt.New(fmt.Sprintf("Algorithm B stability region (p=%d, m=%d, w=%d, uniform adversary)", p, mm, wW),
		"α", "α/m", "stable?", "max backlog", "mean service", "w bound")
	fracs := []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.5}
	rec.Rows(t, len(fracs), func(i int, row func(...any)) {
		frac := fracs[i]
		alpha := frac * float64(mm)
		lmt := dynamic.Limits{W: wW, Alpha: alpha, Beta: 0.9}
		adv := dynamic.NewUniformAdversary(p, lmt, cfg.Seed)
		m := newBSPmExp(p, mm, l, cfg)
		res := dynamic.RunAlgorithmB(m, adv, lmt, windows, 0.25)
		row(alpha, frac, stableStr(res.LooksStable()), res.MaxBacklog,
			res.MeanService(), wW)
	})
	rec.Emit(t)

	// Service-time comparison against the Claim 6.8 dominating system and
	// the Theorem 6.7 O(w²/u) bound.
	u := max(wW/4, 1)
	sd := queue.SDoublePrime{W: wW, U: u}
	t2 := tablefmt.New(fmt.Sprintf("Claim 6.8 analytics (w=%d, u=%d)", wW, u),
		"quantity", "value")
	t2.Row("E[S''0] (dominating scaled service)", sd.Mean())
	t2.Row("paper bound 1.21·w/u", 1.21*float64(wW)/float64(u))
	t2.Row("Thm 6.7 expected-service bound 2.42·w²/u", lower.ExpectedServiceTime(wW, u))
	mg1 := queue.MG1{Lambda: 0.1, Mu1: sd.Mean(), Mu2: sd.SecondMoment()}
	t2.Row("M/G/1 mean queue at departure (r=0.1)", mg1.MeanQueueAtDeparture())
	rec.Emit(t2)

	// Variable-length extension: Algorithm B parameterized by the
	// consecutive-flit scheduler (Theorem 6.7's "algorithm A" slot filled
	// with Theorem 6.3).
	t3 := tablefmt.New("Algorithm B with long messages (A = Unbalanced-Consecutive-Send)",
		"flits/msg", "α·flits", "stable?", "max backlog", "mean service")
	flits := []int{1, 2, 4, 8}
	rec.Rows(t3, len(flits), func(i int, row func(...any)) {
		fl := flits[i]
		alpha := float64(mm) / float64(4*fl)
		lmt := dynamic.Limits{W: wW, Alpha: alpha, Beta: 0.5}
		adv := dynamic.NewUniformAdversary(p, lmt, cfg.Seed)
		m := newBSPmExp(p, mm, l, cfg)
		res := dynamic.RunAlgorithmBWith(m, adv, lmt, windows, fl,
			dynamic.ConsecutiveSendScheduler(0.25))
		row(fl, alpha*float64(fl), stableStr(res.LooksStable()), res.MaxBacklog, res.MeanService())
	})
	rec.Emit(t3)
}

func runListRankAblation(rec *Recorder) {
	cfg := rec.Cfg
	// Fixed small aggregate bandwidth m = 8 — the m ≪ p regime where the
	// n/m term dominates. Pointer jumping moves Θ(n) messages per round
	// (Θ((n/m)·lg n) total); contraction's geometrically shrinking rounds
	// pay Θ(n/m + L·lg n), so its advantage grows with n.
	l, mm := rec.Int("l"), rec.Int("m")
	t := tablefmt.New(fmt.Sprintf("list ranking on BSP(m=%d): pointer jumping vs contraction (n = p)", mm),
		"n", "pointer jumping", "contraction", "jump/contract")
	ns := rec.IntSweep("n", []int{512, 1024, 4096}, []int{256})
	rec.Rows(t, len(ns), func(i int, row func(...any)) {
		p := ns[i]
		list := randomListFor(cfg.Seed, p)
		mj := newBSPmL(p, mm, l, cfg)
		problemsListRankJump(mj, list)
		mc := newBSPmL(p, mm, l, cfg)
		problemsListRankContract(mc, list)
		row(p, mj.Time(), mc.Time(), mj.Time()/mc.Time())
	})
	rec.Emit(t)
}

func stableStr(b bool) string {
	if b {
		return "stable"
	}
	return "UNSTABLE"
}

// Small indirections keeping dynexp.go's imports tidy.
func randomListFor(seed uint64, n int) problems.List {
	return problems.RandomList(xrand.New(seed), n)
}

func problemsListRankJump(m *bsp.Machine, l problems.List)     { problems.ListRankJumpBSP(m, l) }
func problemsListRankContract(m *bsp.Machine, l problems.List) { problems.ListRankContractBSP(m, l) }
