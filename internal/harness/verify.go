package harness

import (
	"fmt"
	"io"

	"parbw/internal/collective"
	"parbw/internal/dynamic"
	"parbw/internal/lower"
	"parbw/internal/pram"
	"parbw/internal/problems"
	"parbw/internal/sched"
	"parbw/internal/xrand"
)

// Check is one verifiable claim of the paper, evaluated against the
// simulator: Run returns a human-readable measurement and whether it
// confirms the claim.
type Check struct {
	ID     string
	Claim  string
	Source string
	Run    func(seed uint64) (detail string, ok bool)
}

// Checks returns the reproduction checklist: the headline quantitative
// claims, each as an executable assertion. `bandsim verify` runs them all.
func Checks() []Check {
	return []Check{
		{
			ID:     "onetoall-theta-g",
			Claim:  "one-to-all separation is exactly Θ(g) at matched bandwidth",
			Source: "Table 1 row 1",
			Run: func(seed uint64) (string, bool) {
				p, g, l := 1024, 16, 8
				vals := make([]int64, p)
				lm := newBSPg(p, g, l, Config{Seed: seed})
				collective.OneToAllBSP(lm, 0, vals)
				gm := newBSPmL(p, p/g, l, Config{Seed: seed})
				collective.OneToAllBSP(gm, 0, vals)
				sep := lm.Time() / gm.Time()
				return fmt.Sprintf("separation %.2f vs g=%d", sep, g),
					sep > 0.9*float64(g) && sep <= float64(g)+1
			},
		},
		{
			ID:     "global-wins-every-row",
			Claim:  "globally-limited model wins every Table 1 row",
			Source: "Table 1",
			Run: func(seed uint64) (string, bool) {
				p, g, l := 512, 16, 8
				wins := 0
				// broadcast
				lm := newBSPg(p, g, l, Config{Seed: seed})
				collective.BroadcastBSP(lm, 0, 1)
				gm := newBSPmL(p, p/g, l, Config{Seed: seed})
				collective.BroadcastBSP(gm, 0, 1)
				if gm.Time() < lm.Time() {
					wins++
				}
				// parity
				bits := make([]int64, p)
				lm2 := newBSPg(p, g, l, Config{Seed: seed})
				problems.ParityBSP(lm2, bits)
				gm2 := newBSPmL(p, p/g, l, Config{Seed: seed})
				problems.ParityBSP(gm2, bits)
				if gm2.Time() < lm2.Time() {
					wins++
				}
				// list ranking (g ≫ L regime)
				list := problems.RandomList(xrand.New(seed), p)
				lm3 := newBSPg(p, 32, 2, Config{Seed: seed})
				problems.ListRankContractBSP(lm3, list)
				gm3 := newBSPmL(p, p/32, 2, Config{Seed: seed})
				problems.ListRankContractBSP(gm3, list)
				if gm3.Time() < lm3.Time() {
					wins++
				}
				// sorting
				keys := make([]int64, p)
				rng := xrand.New(seed)
				for i := range keys {
					keys[i] = int64(rng.Uint64() % 9973)
				}
				lm4 := newBSPg(p, g, l, Config{Seed: seed})
				problems.ColumnsortBSP(lm4, keys, 4)
				gm4 := newBSPmL(p, p/g, l, Config{Seed: seed})
				problems.ColumnsortBSP(gm4, keys, 4)
				if gm4.Time() < lm4.Time() {
					wins++
				}
				return fmt.Sprintf("%d/4 rows won by the (m) model", wins), wins == 4
			},
		},
		{
			ID:     "unbalanced-send-near-optimal",
			Claim:  "Unbalanced-Send completes within (1+ε)·optimal + τ w.h.p.",
			Source: "Theorem 6.2",
			Run: func(seed uint64) (string, bool) {
				p, mm, l := 256, 64, 8
				eps := 0.25
				plan := sched.ZipfPlan(xrand.New(seed), p, 8192, 1.1)
				m := newBSPmExp(p, mm, l, Config{Seed: seed})
				r := sched.UnbalancedSend(m, plan, sched.Options{Eps: eps})
				opt := r.OptimalOffline(mm, l)
				ratio := (r.Time - r.Tau) / opt
				return fmt.Sprintf("time/opt = %.3f (ε=%.2f), overloads %d",
					ratio, eps, r.Send.Overload), ratio <= 1+eps+0.05
			},
		},
		{
			ID:     "naive-catastrophic",
			Claim:  "unscheduled bursts are catastrophically slow under f^u",
			Source: "Section 2 penalty discussion",
			Run: func(seed uint64) (string, bool) {
				p, mm, l := 128, 8, 2
				plan := sched.UniformPlan(xrand.New(seed), p, 32)
				naive := sched.NaiveSend(newBSPmExp(p, mm, l, Config{Seed: seed}), plan)
				schd := sched.UnbalancedSend(newBSPmExp(p, mm, l, Config{Seed: seed}), plan, sched.Options{})
				ratio := naive.Time / schd.Time
				return fmt.Sprintf("naive/scheduled = %.3g", ratio), ratio > 1000
			},
		},
		{
			ID:     "bspg-threshold",
			Claim:  "BSP(g) dynamic routing is stable iff β <= 1/g",
			Source: "Theorem 6.5",
			Run: func(seed uint64) (string, bool) {
				p, g, l := 16, 8, 4
				at := func(beta float64) bool {
					lmt := dynamic.Limits{W: 32, Alpha: beta, Beta: beta}
					m := newBSPg(p, g, l, Config{Seed: seed})
					return dynamic.RunBSPgInterval(m, dynamic.SingleTargetAdversary{L: lmt}, lmt, 80).LooksStable()
				}
				below, above := at(1.0/float64(g)), at(2.0/float64(g))
				return fmt.Sprintf("stable@1/g=%v, stable@2/g=%v", below, above),
					below && !above
			},
		},
		{
			ID:     "bspm-absorbs-beta-1",
			Claim:  "Algorithm B absorbs local rate β = 1 (g× past the BSP(g) threshold)",
			Source: "Theorem 6.7",
			Run: func(seed uint64) (string, bool) {
				p, g, l := 16, 8, 4
				lmt := dynamic.Limits{W: 32, Alpha: 1, Beta: 1}
				m := newBSPmExp(p, p/g, l, Config{Seed: seed})
				res := dynamic.RunAlgorithmB(m, dynamic.SingleTargetAdversary{L: lmt}, lmt, 80, 0.25)
				return fmt.Sprintf("max backlog %d over %d windows", res.MaxBacklog, res.Windows),
					res.LooksStable()
			},
		},
		{
			ID:     "er-cr-gap-grows",
			Claim:  "ER/CR leader-recognition gap grows with p at fixed m",
			Source: "Theorem 5.2 / Lemma 5.3",
			Run: func(seed uint64) (string, bool) {
				mm := 4
				gap := func(p int) float64 {
					cr := pram.New(pram.Config{P: p, Mem: mm, Mode: pram.CRCWArbitrary,
						ROM: problems.LeaderInput(p, p/2), Seed: seed})
					problems.LeaderCR(cr)
					er := pram.New(pram.Config{P: p, Mem: mm, Mode: pram.EREW,
						ROM: problems.LeaderInput(p, p/2), Seed: seed})
					problems.LeaderER(er, mm)
					return er.Time() / cr.Time()
				}
				g1, g2 := gap(256), gap(2048)
				lb := lower.SeparationERCR(2048, mm)
				return fmt.Sprintf("gap %.0f→%.0f (p 256→2048), Ω-bound %.0f", g1, g2, lb),
					g2 > 4*g1 && g2 >= lb
			},
		},
		{
			ID:     "hrelation-linear",
			Claim:  "h-relations route on the CRCW PRAM in O(h) steps",
			Source: "Section 4.1",
			Run: func(seed uint64) (string, bool) {
				p := 32
				stepsPerH := func(h int) float64 {
					plan := make([][]problems.HRelationMsg, p)
					for i := range plan {
						for j := 0; j < h; j++ {
							plan[i] = append(plan[i], problems.HRelationMsg{Dst: (i + j + 1) % p, Val: 1})
						}
					}
					m := pram.New(pram.Config{P: p, Mem: 2 * p, Mode: pram.CRCWArbitrary, Seed: seed})
					problems.HRelationCRCW(m, plan)
					return m.Time() / float64(h)
				}
				s4, s16 := stepsPerH(4), stepsPerH(16)
				return fmt.Sprintf("steps/h: %.2f at h=4, %.2f at h=16", s4, s16),
					s4 < 8 && s16 < 8
			},
		},
		{
			ID:     "ternary-beats-trees",
			Claim:  "non-receipt broadcast runs in g·⌈log3 p⌉ and beats the Thm 4.1 LB constant",
			Source: "Section 4.2",
			Run: func(seed uint64) (string, bool) {
				p, g, l := 729, 8, 8
				m := newBSPg(p, g, l, Config{Seed: seed})
				collective.BroadcastTernaryBSPg(m, 1)
				pred := lower.BroadcastTernaryBSPg(p, g)
				lb := lower.BroadcastLBBSPg(p, g, l)
				return fmt.Sprintf("measured %.0f <= alg bound %.0f, >= LB %.1f", m.Time(), pred, lb),
					m.Time() <= pred && m.Time() >= lb
			},
		},
		{
			ID:     "selfsched-valid",
			Claim:  "self-scheduling BSP(m) algorithms realize on the BSP(m) within (1+ε)",
			Source: "Section 2",
			Run: func(seed uint64) (string, bool) {
				p, mm, l := 256, 64, 4
				plan := sched.ZipfPlan(xrand.New(seed), p, 8192, 1.1)
				ss := newBSPSelfSched(p, mm, l, Config{Seed: seed})
				sres := sched.NaiveSend(ss, plan)
				real := newBSPmExp(p, mm, l, Config{Seed: seed})
				rres := sched.UnbalancedSend(real, plan, sched.Options{Eps: 0.25, KnownN: sres.N})
				ratio := rres.Time / sres.Time
				return fmt.Sprintf("realized/metric = %.3f", ratio), ratio <= 1.3
			},
		},
	}
}

// Verify runs every check and reports; it returns the number of failures.
func Verify(w io.Writer, seed uint64) int {
	fails := 0
	for _, c := range Checks() {
		detail, ok := c.Run(seed)
		status := "PASS"
		if !ok {
			status = "FAIL"
			fails++
		}
		fmt.Fprintf(w, "[%s] %-28s %s (%s)\n        %s\n", status, c.ID, c.Claim, c.Source, detail)
	}
	return fails
}
