package harness

import (
	"fmt"

	"parbw/internal/collective"
	"parbw/internal/lower"
	"parbw/internal/problems"
	"parbw/internal/tablefmt"
	"parbw/internal/xrand"
)

func init() {
	register(Experiment{
		ID:     "table1/summary",
		Title:  "Table 1, measured: all five rows in the paper's shape",
		Source: "Table 1",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (4096 full, 256 quick)").Range(0, 1<<20),
		},
		run: runTable1Summary,
	})
}

// runTable1Summary reproduces the paper's Table 1 layout: one row per
// problem, strong (globally-limited) and weak (locally-limited) model times
// side by side with the measured separation and the paper's predicted
// separation shape, all at one configuration per row (chosen inside each
// row's separation regime).
func runTable1Summary(rec *Recorder) {
	cfg := rec.Cfg
	p := rec.IntOr("p", 4096, 256)
	t := tablefmt.New(fmt.Sprintf("Table 1 (measured, n = p = %d, m = p/g)", p),
		"problem", "params", "strong model", "weak model", "measured sep", "paper separation (n=p)")
	wins := 0

	// Row 1: one-to-all personalized communication, g = 16, L = 8.
	{
		g, l := 16, 8
		vals := make([]int64, p)
		lm := newBSPg(p, g, l, cfg)
		collective.OneToAllBSP(lm, 0, vals)
		gm := newBSPmL(p, p/g, l, cfg)
		collective.OneToAllBSP(gm, 0, vals)
		if gm.Time() < lm.Time() {
			wins++
		}
		t.Row("One-to-all comm.", fmt.Sprintf("g=%d L=%d", g, l),
			fmt.Sprintf("BSP(m): %.0f", gm.Time()),
			fmt.Sprintf("BSP(g): %.0f", lm.Time()),
			ratioStr(lm.Time(), gm.Time()), fmt.Sprintf("Θ(g) = %d", g))
	}

	// Row 2: broadcasting, g = 8, L = 32.
	{
		g, l := 8, 32
		lm := newBSPg(p, g, l, cfg)
		collective.BroadcastBSP(lm, 0, 1)
		gm := newBSPmL(p, p/g, l, cfg)
		collective.BroadcastBSP(gm, 0, 1)
		pred := lower.BroadcastBSPg(p, g, l) / lower.BroadcastBSPm(p, p/g, l)
		if gm.Time() < lm.Time() {
			wins++
		}
		t.Row("Broadcasting", fmt.Sprintf("g=%d L=%d", g, l),
			fmt.Sprintf("BSP(m): %.0f", gm.Time()),
			fmt.Sprintf("BSP(g): %.0f", lm.Time()),
			ratioStr(lm.Time(), gm.Time()),
			fmt.Sprintf("Θ(lgL·lgp/(lg(L/g)·lgm)) ≈ %.1f", pred))
	}

	// Row 3: parity / summation, QSM machines, g = 16.
	{
		g := 16
		rng := xrand.New(cfg.Seed)
		bits := make([]int64, p)
		for i := range bits {
			bits[i] = int64(rng.Intn(2))
		}
		lm := newQSMg(p, 2*p, g, cfg)
		problems.ParityQSM(lm, bits)
		gm := newQSMmL(p, 2*p, p/g, cfg)
		problems.ParityQSM(gm, bits)
		if gm.Time() < lm.Time() {
			wins++
		}
		t.Row("Parity, Summation", fmt.Sprintf("g=%d", g),
			fmt.Sprintf("QSM(m): %.0f", gm.Time()),
			fmt.Sprintf("QSM(g): %.0f", lm.Time()),
			ratioStr(lm.Time(), gm.Time()),
			fmt.Sprintf("Ω(lgn/lglgn) ≈ %.1f", lower.Lg(float64(p))/lower.LgLg(float64(p))))
	}

	// Row 4: list ranking, g ≫ L regime.
	{
		g, l := 32, 2
		rng := xrand.New(cfg.Seed)
		list := problems.RandomList(rng, p)
		lm := newBSPg(p, g, l, cfg)
		problems.ListRankContractBSP(lm, list)
		gm := newBSPmL(p, p/g, l, cfg)
		problems.ListRankContractBSP(gm, list)
		if gm.Time() < lm.Time() {
			wins++
		}
		t.Row("List ranking", fmt.Sprintf("g=%d L=%d", g, l),
			fmt.Sprintf("BSP(m): %.0f", gm.Time()),
			fmt.Sprintf("BSP(g): %.0f", lm.Time()),
			ratioStr(lm.Time(), gm.Time()),
			fmt.Sprintf("Ω(lgn/lglgn) ≈ %.1f", lower.Lg(float64(p))/lower.LgLg(float64(p))))
	}

	// Row 5: sorting, m = O(n^{1-ε}).
	{
		g, l := 16, 8
		keys := sortKeys(cfg.Seed, p)
		q := 1
		for q*2 <= p && p/(q*2) >= 2*(q*2-1)*(q*2-1) {
			q *= 2
		}
		lm := newBSPg(p, g, l, cfg)
		problems.ColumnsortBSP(lm, keys, q)
		gm := newBSPmL(p, p/g, l, cfg)
		problems.ColumnsortBSP(gm, keys, q)
		if gm.Time() < lm.Time() {
			wins++
		}
		t.Row("Sorting", fmt.Sprintf("g=%d L=%d q=%d", g, l, q),
			fmt.Sprintf("BSP(m): %.0f", gm.Time()),
			fmt.Sprintf("BSP(g): %.0f", lm.Time()),
			ratioStr(lm.Time(), gm.Time()),
			fmt.Sprintf("Θ(lgn/lglgn) ≈ %.1f", lower.Lg(float64(p))/lower.LgLg(float64(p))))
	}
	rec.Emit(t)
	rec.Verdict("table1/global-wins-all-rows", wins == 5,
		fmt.Sprintf("globally-limited model faster on %d/5 rows at matched aggregate bandwidth", wins))
}
