// Package oracle states the cost-model invariants the paper implies as
// machine-checkable predicates over canonical workloads (internal/work,
// generated by internal/workgen). Each invariant drives the workload
// through real machines or prices it with the real cost models and reports
// a Violation when the property fails; a fuzzing run is simply CheckIR over
// many seeds.
//
// The invariants are deterministic: they use fixed-seed machines with one
// worker, so a violation found on any host reproduces bit-identically on
// every other. Probabilistic claims from the paper (the w.h.p. (1+ε) bound
// of Theorem 6.2) are encoded as their deterministic surrogates — bounds
// that hold for every random phase choice, derived in the sched/* checks
// below — so a single failing seed is always a true counterexample, never
// bad luck.
package oracle

import (
	"fmt"
	"math"

	"parbw/internal/bsp"
	"parbw/internal/model"
	"parbw/internal/pram"
	"parbw/internal/qsm"
	"parbw/internal/sched"
	"parbw/internal/work"
)

// Violation is one failed invariant. Detail is deterministic — derived only
// from the workload and the machines' accounting — so fuzzing output is
// byte-stable across runs.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// BreakForTest, when set to an invariant name, deliberately corrupts that
// invariant's comparison so the fuzz → shrink → corpus pipeline can be
// exercised end to end against a known-bad oracle. Only
// "workload/conserve" is supported: the check then fails for every workload
// that carries at least one flit, which ddmin must shrink to a single
// one-send superstep. Never set outside tests.
var BreakForTest string

// Invariants lists every invariant name CheckIR can emit, in check order.
func Invariants() []string {
	return []string{
		"workload/validate",
		"workload/conserve",
		"workload/precedence",
		"conformance/ground-truth",
		"pricing/bsp-qsm",
		"pricing/monotone-overload",
		"pricing/monotone-m",
		"sched/conserve",
		"sched/period",
		"sched/offline",
		"sched/bounded-cost",
	}
}

// CheckIR runs every invariant against ir and returns the violations in
// check order (nil if the workload satisfies all of them). Structurally
// invalid workloads (work.IR.Validate) report only workload/validate: the
// remaining invariants assume a well-formed workload and are skipped rather
// than run into engine panics. CheckIR itself never panics — a panicking
// invariant is converted into a violation recording the panic value.
func CheckIR(ir *work.IR) []Violation {
	if err := ir.Validate(); err != nil {
		return []Violation{{Invariant: "workload/validate", Detail: err.Error()}}
	}
	return checkInvariants(ir)
}

// checkInvariants runs the invariant bodies over a validated IR under panic
// capture.
func checkInvariants(ir *work.IR) []Violation {
	var out []Violation
	report := func(invariant, format string, args ...any) {
		out = append(out, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}
	checks := []struct {
		name string
		fn   func(*work.IR, func(string, ...any))
	}{
		{"workload/conserve", checkConserve},
		{"workload/precedence", checkPrecedence},
		{"conformance/ground-truth", checkGroundTruth},
		{"pricing/bsp-qsm", checkBSPQSMPricing},
		{"pricing/monotone-overload", checkMonotoneOverload},
		{"pricing/monotone-m", checkMonotoneM},
		{"sched/conserve", checkSchedConserve},
		{"sched/period", checkSchedPeriod},
		{"sched/offline", checkSchedOffline},
		{"sched/bounded-cost", checkSchedBoundedCost},
	}
	for _, c := range checks {
		func() {
			defer func() {
				if r := recover(); r != nil {
					report(c.name, "panic: %v", r)
				}
			}()
			c.fn(ir, func(format string, args ...any) { report(c.name, format, args...) })
		}()
	}
	return out
}

// checkConserve: the declared totals equal the totals recomputed from the
// step data. Any stage that rewrites a workload (generator, shrinker,
// corpus round trip) must preserve this.
func checkConserve(ir *work.IR, fail func(string, ...any)) {
	sends, flits := ir.CountSends()
	if BreakForTest == "workload/conserve" && flits > 0 {
		flits++ // deliberate corruption; see BreakForTest
	}
	if sends != ir.TotalSends || flits != ir.TotalFlits {
		fail("declared totals (sends=%d, flits=%d) != actual (sends=%d, flits=%d)",
			ir.TotalSends, ir.TotalFlits, sends, flits)
	}
}

// checkPrecedence: every cross-processor dependency edge of the precedence
// layer is realized by a message — for edge (u, v) with u on processor a
// computing in phase s and v on processor b ≠ a computing in phase e, some
// communication superstep t with s ≤ t < e must carry a send from a to b.
// A lowered DAG schedule that drops, misroutes, or mis-phases a dependency
// message computes with data that never arrived; this is the conformance
// contract of work/dagsched.Lower and of any hand-built scheduled DAG.
// Workloads without a precedence layer trivially pass.
func checkPrecedence(ir *work.IR, fail func(string, ...any)) {
	pr := ir.Prec
	if pr == nil {
		return
	}
	// Per-superstep set of (src, dst) processor pairs carrying traffic.
	type pair struct{ src, dst int }
	carried := make([]map[pair]bool, len(ir.Steps))
	for si := range ir.Steps {
		m := make(map[pair]bool, len(ir.Steps[si].Sends))
		for _, s := range ir.Steps[si].Sends {
			m[pair{s.Proc, s.Dst}] = true
		}
		carried[si] = m
	}
	for ei, e := range pr.Edges {
		u, v := e[0], e[1]
		a, b := pr.Proc[u], pr.Proc[v]
		if a == b {
			continue
		}
		covered := false
		for t := pr.Step[u]; t < pr.Step[v] && t < len(ir.Steps); t++ {
			if carried[t][pair{a, b}] {
				covered = true
				break
			}
		}
		if !covered {
			fail("edge %d (node %d -> %d): no send %d -> %d in supersteps [%d, %d)",
				ei, u, v, a, b, pr.Step[u], pr.Step[v])
		}
	}
}

// expected computes one superstep's ground-truth accounting directly from
// the sends: total flits, steps spanned, and the per-slot histogram.
func expected(ir *work.IR, step int) (n, steps, maxSlot int, hist []int) {
	hist = ir.Hist(step)
	steps = len(hist)
	for _, mt := range hist {
		n += mt
		if mt > maxSlot {
			maxSlot = mt
		}
	}
	return n, steps, maxSlot, hist
}

// driveBSP replays one superstep of the workload on a fresh BSP(m) machine
// under the given cost model and returns the superstep stats. Compute work
// is deliberately not charged: the conformance and pricing invariants
// compare communication accounting, which must not vary with work vectors.
func driveBSP(ir *work.IR, step int, cost model.Cost) bsp.Stats {
	m := bsp.New(bsp.Config{P: ir.P, Cost: cost, Seed: ir.Seed})
	return m.Superstep(func(c *bsp.Ctx) {
		for _, s := range ir.Steps[step].Sends {
			if s.Proc != c.ID() {
				continue
			}
			c.SendAt(s.Slot, s.Dst, bsp.Msg{Dst: int32(s.Dst), Len: int32(s.Len)})
		}
	})
}

// checkGroundTruth: the BSP engine's accounting of every superstep matches
// the ground truth computed directly from the sends (N = Σ flits,
// Steps = max slot end, MaxSlot = histogram peak), and the PRAM machine
// replaying slot t as lock-step step t reproduces the histogram per step.
func checkGroundTruth(ir *work.IR, fail func(string, ...any)) {
	for step := range ir.Steps {
		wantN, wantSteps, wantMaxSlot, hist := expected(ir, step)
		st := driveBSP(ir, step, model.BSPm(ir.M, ir.L))
		if st.N != wantN {
			fail("superstep %d: bsp N = %d, want Σ flits = %d", step, st.N, wantN)
		}
		if st.Steps != wantSteps {
			fail("superstep %d: bsp Steps = %d, want max slot end = %d", step, st.Steps, wantSteps)
		}
		if st.MaxSlot != wantMaxSlot {
			fail("superstep %d: bsp MaxSlot = %d, want hist peak = %d", step, st.MaxSlot, wantMaxSlot)
		}

		pm := pram.New(pram.Config{P: ir.P, Mem: ir.P, Mode: pram.CRCWArbitrary, Seed: ir.Seed})
		total := 0
		for t := 0; t < wantSteps; t++ {
			pst := pm.Step(func(c *pram.Ctx) {
				for _, s := range ir.Steps[step].Sends {
					if s.Proc != c.ID() {
						continue
					}
					for f := 0; f < s.Flits(); f++ {
						if s.Slot+f == t {
							c.Write(s.Dst, int64(s.Proc))
						}
					}
				}
			})
			if pst.Writes != hist[t] {
				fail("superstep %d: pram step %d writes = %d, want hist %d", step, t, pst.Writes, hist[t])
			}
			total += pst.Writes
		}
		if total != wantN {
			fail("superstep %d: pram total writes = %d, want %d", step, total, wantN)
		}
	}
}

// checkBSPQSMPricing: BSP(m) and QSM(m) price identical slot histograms
// identically — same c_m, same overload count — when each flit of the
// message workload is replayed as a unit shared-memory request in the same
// slot. This is the paper's BSP ≡ QSM pricing equivalence.
func checkBSPQSMPricing(ir *work.IR, fail func(string, ...any)) {
	for step := range ir.Steps {
		wantN, _, _, _ := expected(ir, step)
		bst := driveBSP(ir, step, model.BSPm(ir.M, ir.L))
		qm := qsm.New(qsm.Config{P: ir.P, Mem: ir.P, Cost: model.QSMm(ir.M), Seed: ir.Seed})
		qst := qm.Phase(func(c *qsm.Ctx) {
			for _, s := range ir.Steps[step].Sends {
				if s.Proc != c.ID() {
					continue
				}
				for f := 0; f < s.Flits(); f++ {
					c.WriteAt(s.Slot+f, s.Dst, int64(s.Proc))
				}
			}
		})
		if got := qst.Reads + qst.Writes; got != wantN {
			fail("superstep %d: qsm requests = %d, want %d", step, got, wantN)
		}
		if bst.CM != qst.CM {
			fail("superstep %d: c_m diverges: bsp %v vs qsm %v", step, bst.CM, qst.CM)
		}
		if bst.Overload != qst.Overload {
			fail("superstep %d: overload diverges: bsp %d vs qsm %d", step, bst.Overload, qst.Overload)
		}
		if bst.Steps != qst.Steps || bst.MaxSlot != qst.MaxSlot {
			fail("superstep %d: slot accounting diverges: bsp (%d, %d) vs qsm (%d, %d)",
				step, bst.Steps, bst.MaxSlot, qst.Steps, qst.MaxSlot)
		}
	}
}

// checkMonotoneOverload: c_m never decreases when one more flit is injected
// into an already-busiest slot, under both the linear and the exponential
// penalty. Overloading a step can only cost more.
func checkMonotoneOverload(ir *work.IR, fail func(string, ...any)) {
	for step := range ir.Steps {
		_, _, _, hist := expected(ir, step)
		if len(hist) == 0 {
			continue
		}
		busiest := 0
		for t, mt := range hist {
			if mt > hist[busiest] {
				busiest = t
			}
		}
		worse := append([]int(nil), hist...)
		worse[busiest]++
		for _, pen := range []struct {
			name string
			f    model.Penalty
		}{{"linear", model.LinearPenalty}, {"exp", model.ExpPenalty}} {
			c := model.Cost{Kind: model.KindBSPm, M: ir.M, L: ir.L, Penalty: pen.f}
			before, after := c.CM(hist), c.CM(worse)
			if after < before {
				fail("superstep %d: %s c_m decreased under extra load: %v -> %v",
					step, pen.name, before, after)
			}
		}
	}
}

// checkMonotoneM: c_m never increases when the aggregate bandwidth m grows
// — a better network cannot price the same histogram higher. This is the
// monotonicity-in-machine-size half of the paper's separation arguments.
func checkMonotoneM(ir *work.IR, fail func(string, ...any)) {
	for step := range ir.Steps {
		_, _, _, hist := expected(ir, step)
		for _, pen := range []struct {
			name string
			f    model.Penalty
		}{{"linear", model.LinearPenalty}, {"exp", model.ExpPenalty}} {
			small := model.Cost{Kind: model.KindBSPm, M: ir.M, L: ir.L, Penalty: pen.f}
			big := model.Cost{Kind: model.KindBSPm, M: ir.M + 1, L: ir.L, Penalty: pen.f}
			cs, cb := small.CM(hist), big.CM(hist)
			if cb > cs {
				fail("superstep %d: %s c_m increased with bandwidth: m=%d cost %v < m=%d cost %v",
					step, pen.name, ir.M, cs, ir.M+1, cb)
			}
		}
	}
}

// planFor projects one superstep into a scheduler plan, its flit total,
// x̄ and ℓ̂. The sched/* invariants skip a superstep with no flits (the
// schedulers would run the learn-n collective and the bounds below assume
// KnownN).
func planFor(ir *work.IR, step int) (plan sched.Plan, flits, xbar, lhat int) {
	plan = sched.Plan(ir.Rows(step))
	if err := sched.CheckPlan(ir.P, plan); err != nil {
		panic(err) // unreachable after Validate; surfaced as a panic violation
	}
	x, n, _ := plan.Flits(ir.P)
	for _, xi := range x {
		if xi > xbar {
			xbar = xi
		}
	}
	return plan, n, xbar, plan.MaxLen()
}

// checkSchedConserve: the compiled scheduler plan conserves flits — the
// sending superstep injects exactly the flits the workload declares, no
// duplication, no loss — and the per-step totals sum to the declared
// workload total.
func checkSchedConserve(ir *work.IR, fail func(string, ...any)) {
	sum := 0
	for step := range ir.Steps {
		plan, flits, _, _ := planFor(ir, step)
		sum += flits
		if flits == 0 {
			continue
		}
		m := bsp.New(bsp.Config{P: ir.P, Cost: model.BSPm(ir.M, ir.L), Seed: ir.Seed})
		r := sched.UnbalancedSend(m, plan, sched.Options{KnownN: flits})
		if r.N != flits {
			fail("superstep %d: scheduler sent %d flits, plan declares %d", step, r.N, flits)
		}
		if r.Send.N != flits {
			fail("superstep %d: engine counted %d flits, plan declares %d", step, r.Send.N, flits)
		}
	}
	if sum != ir.TotalFlits {
		fail("per-step plan flits sum to %d, workload declares %d", sum, ir.TotalFlits)
	}
}

// checkSchedPeriod: Unbalanced-Send's sending superstep spans at most
// max(T + ℓ̂ - 1, x̄) injection steps, for every random phase choice: a
// non-overloaded processor starts each message at (j + off) mod T ≤ T-1 and
// a message runs at most ℓ̂ slots past its start; an overloaded processor
// (x_i > T) sends consecutively from slot 0 and finishes by x̄. This is the
// deterministic core of Theorem 6.2's completion bound.
func checkSchedPeriod(ir *work.IR, fail func(string, ...any)) {
	for step := range ir.Steps {
		plan, flits, xbar, lhat := planFor(ir, step)
		if flits == 0 {
			continue
		}
		m := bsp.New(bsp.Config{P: ir.P, Cost: model.BSPm(ir.M, ir.L), Seed: ir.Seed})
		r := sched.UnbalancedSend(m, plan, sched.Options{KnownN: flits})
		bound := r.Period + lhat - 1
		if xbar > bound {
			bound = xbar
		}
		if r.Send.Steps > bound {
			fail("superstep %d: scheduler spans %d steps > bound max(T+ℓ̂-1, x̄) = %d (T=%d, ℓ̂=%d, x̄=%d)",
				step, r.Send.Steps, bound, r.Period, lhat, xbar)
		}
	}
}

// checkSchedOffline: for unit-length workloads the offline schedule is
// perfect — rank k goes to slot k mod T with T = max(⌈n/m⌉, x̄), so no slot
// carries more than ⌈n/T⌉ ≤ m flits and no step is overloaded. Multi-flit
// messages are skipped: straight-through long messages may legitimately
// collide.
func checkSchedOffline(ir *work.IR, fail func(string, ...any)) {
	for step := range ir.Steps {
		unit := true
		for _, s := range ir.Steps[step].Sends {
			if s.Flits() > 1 {
				unit = false
				break
			}
		}
		if !unit {
			continue
		}
		plan, flits, _, _ := planFor(ir, step)
		if flits == 0 {
			continue
		}
		m := bsp.New(bsp.Config{P: ir.P, Cost: model.BSPm(ir.M, ir.L), Seed: ir.Seed})
		r := sched.OfflineSend(m, plan)
		if r.Send.Overload != 0 {
			fail("superstep %d: offline schedule overloaded %d steps", step, r.Send.Overload)
		}
		if r.Send.MaxSlot > ir.M {
			fail("superstep %d: offline schedule peak %d exceeds m=%d", step, r.Send.MaxSlot, ir.M)
		}
	}
}

// checkSchedBoundedCost: under the linear penalty with n known, the
// scheduled superstep's cost is deterministically bounded — the surrogate
// for Theorem 6.2's "(1+ε) of optimal w.h.p." claim that holds for every
// phase choice. Cost = max(h, c_m, L); h ≤ max(x̄, ȳ) and linear c_m charges
// at most 1 + m_t/m per busy step, so
//
//	Cost ≤ max(x̄, ȳ, L, Steps + n/m) ≤ (2+ε)·Opt + ℓ̂ + 1
//
// with Opt = max(⌈n/m⌉, x̄, ȳ, L) the offline bound, since
// Steps ≤ max(T+ℓ̂-1, x̄) and T ≤ (1+ε)n/m + 1. Both inequalities are
// checked.
func checkSchedBoundedCost(ir *work.IR, fail func(string, ...any)) {
	const eps = 0.25
	for step := range ir.Steps {
		plan, flits, xbar, lhat := planFor(ir, step)
		if flits == 0 {
			continue
		}
		m := bsp.New(bsp.Config{P: ir.P, Cost: model.BSPmLinear(ir.M, ir.L), Seed: ir.Seed})
		r := sched.UnbalancedSend(m, plan, sched.Options{Eps: eps, KnownN: flits})
		_, _, y := plan.Flits(ir.P)
		ybar := 0
		for _, yi := range y {
			if yi > ybar {
				ybar = yi
			}
		}
		tight := math.Max(math.Max(float64(xbar), float64(ybar)),
			math.Max(float64(ir.L), float64(r.Send.Steps)+float64(flits)/float64(ir.M)))
		if r.Send.Cost > tight+1e-9 {
			fail("superstep %d: scheduled cost %v exceeds max(x̄, ȳ, L, Steps+n/m) = %v",
				step, r.Send.Cost, tight)
		}
		opt := r.OptimalOffline(ir.M, ir.L)
		loose := (2+eps)*opt + float64(lhat) + 1
		if r.Send.Cost > loose+1e-9 {
			fail("superstep %d: scheduled cost %v exceeds (2+ε)·Opt + ℓ̂ + 1 = %v (Opt=%v)",
				step, r.Send.Cost, loose, opt)
		}
	}
}
