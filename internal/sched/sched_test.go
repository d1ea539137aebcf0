package sched

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"parbw/internal/bsp"
	"parbw/internal/model"
	"parbw/internal/qsm"
	"parbw/internal/xrand"
)

// statCfg gives statistical (w.h.p.) property tests a fixed random source,
// so their small failure probability cannot make the suite flaky.
func statCfg(max int) *quick.Config {
	return &quick.Config{MaxCount: max, Rand: rand.New(rand.NewSource(7))}
}

func machine(p, m, l int, seed uint64) *bsp.Machine {
	return bsp.New(bsp.Config{P: p, Cost: model.BSPm(m, l), Seed: seed})
}

// deliveredFlits counts flits delivered across all inboxes, with a payload
// checksum to confirm delivery of actual message content.
func deliveredFlits(m *bsp.Machine) (flits int, sum int64) {
	for i := 0; i < m.P(); i++ {
		for _, msg := range m.Inbox(i) {
			flits += msg.Flits()
			sum += msg.A
		}
	}
	return flits, sum
}

func planChecksum(plan Plan) (flits int, sum int64) {
	for _, msgs := range plan {
		for _, msg := range msgs {
			flits += msg.Flits()
			sum += msg.A
		}
	}
	return flits, sum
}

type algo struct {
	name string
	run  func(m *bsp.Machine, plan Plan, opt Options) Result
}

var algos = []algo{
	{"UnbalancedSend", UnbalancedSend},
	{"UnbalancedConsecutiveSend", UnbalancedConsecutiveSend},
	{"UnbalancedGranularSend", UnbalancedGranularSend},
	{"NaiveSend", func(m *bsp.Machine, plan Plan, _ Options) Result { return NaiveSend(m, plan) }},
	{"OfflineSend", func(m *bsp.Machine, plan Plan, _ Options) Result { return OfflineSend(m, plan) }},
}

// Every algorithm must deliver every message regardless of skew.
func TestAllAlgorithmsDeliverEverything(t *testing.T) {
	rng := xrand.New(1)
	p := 32
	plans := map[string]Plan{
		"uniform":  UniformPlan(rng, p, 5),
		"point":    PointPlan(p, 300),
		"zipf":     ZipfPlan(rng, p, 400, 1.3),
		"halfhalf": HalfHalfPlan(rng, p, 20, 1),
		"perm":     PermutationPlan(rng, p),
		"exchange": UnbalancedExchangePlan(rng, p, 3),
		"empty":    make(Plan, p),
	}
	for _, a := range algos {
		for name, plan := range plans {
			m := machine(p, 8, 4, 99)
			res := a.run(m, plan, Options{})
			wantFlits, wantSum := planChecksum(plan)
			gotFlits, gotSum := deliveredFlits(m)
			if gotFlits != wantFlits || gotSum != wantSum {
				t.Fatalf("%s/%s: delivered %d flits (sum %d), want %d (%d)",
					a.name, name, gotFlits, gotSum, wantFlits, wantSum)
			}
			if res.N != wantFlits {
				t.Fatalf("%s/%s: Result.N = %d, want %d", a.name, name, res.N, wantFlits)
			}
		}
	}
}

// Theorem 6.2 shape: with m not too small, Unbalanced-Send never overloads
// a step and completes within (1+ε)·optimal plus τ.
func TestUnbalancedSendWithinBound(t *testing.T) {
	rng := xrand.New(2)
	p, mm, l := 64, 32, 4
	eps := 0.25
	for trial := 0; trial < 10; trial++ {
		plan := ZipfPlan(rng, p, 4000, 1.1)
		m := machine(p, mm, l, uint64(trial))
		res := UnbalancedSend(m, plan, Options{Eps: eps})
		if res.Send.Overload != 0 {
			t.Fatalf("trial %d: %d overloaded steps (MaxSlot=%d, m=%d)",
				trial, res.Send.Overload, res.Send.MaxSlot, mm)
		}
		opt := res.OptimalOffline(mm, l)
		bound := (1+eps)*opt + res.Tau + float64(res.XBar)
		if res.Time > bound+1 {
			t.Fatalf("trial %d: time %v exceeds bound %v (opt %v, τ %v)",
				trial, res.Time, bound, opt, res.Tau)
		}
	}
}

// The sending superstep must respect the per-step limit w.h.p.: MaxSlot <= m.
func TestUnbalancedSendRespectsAggregateLimit(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p, mm := 32, 16
		plan := ZipfPlan(rng, p, 2000, 1.0)
		m := machine(p, mm, 2, seed)
		res := UnbalancedSend(m, plan, Options{Eps: 0.5})
		return res.Send.MaxSlot <= mm+mm/2
	}
	if err := quick.Check(f, statCfg(30)); err != nil {
		t.Fatal(err)
	}
}

// Point imbalance: one sender with n messages. h = n dominates; time must be
// ~n + τ, not (1+ε)n/m-limited (the sender itself is the bottleneck).
func TestPointImbalance(t *testing.T) {
	p, mm, l := 32, 8, 2
	n := 256
	plan := PointPlan(p, n)
	m := machine(p, mm, l, 5)
	res := UnbalancedSend(m, plan, Options{})
	if res.XBar != n {
		t.Fatalf("XBar = %d, want %d", res.XBar, n)
	}
	// One sender can inject only one flit per step: cost >= n.
	if res.Send.Cost < float64(n) {
		t.Fatalf("send cost %v < h = %d", res.Send.Cost, n)
	}
	if res.Send.Cost > float64(n)+float64(res.Period) {
		t.Fatalf("send cost %v far above h = %d (period %d)", res.Send.Cost, n, res.Period)
	}
}

// Ablation: under the exponential penalty, NaiveSend on a skewed plan is
// catastrophically slower than UnbalancedSend; under the linear penalty it
// is only modestly slower.
func TestNaiveVsScheduledPenaltyRegimes(t *testing.T) {
	rng := xrand.New(3)
	p, mm, l := 64, 8, 2
	plan := UniformPlan(rng, p, 50) // all 64 procs inject simultaneously

	exp := machine(p, mm, l, 7)
	naive := NaiveSend(exp, plan)
	sched := UnbalancedSend(machine(p, mm, l, 7), plan, Options{})
	if naive.Time < 100*sched.Time {
		t.Fatalf("exponential penalty: naive %v not ≫ scheduled %v", naive.Time, sched.Time)
	}

	lin := bsp.New(bsp.Config{P: p, Cost: model.BSPmLinear(mm, l), Seed: 7})
	naiveLin := NaiveSend(lin, plan)
	if naiveLin.Time > 3*sched.Time {
		t.Fatalf("linear penalty: naive %v unexpectedly ≫ scheduled %v", naiveLin.Time, sched.Time)
	}
}

// OfflineSend is deterministic, never overloads, and matches the offline
// optimum up to rounding for unit messages.
func TestOfflineSendOptimal(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p, mm := 16, 4
		plan := ZipfPlan(rng, p, 500, 0.8)
		m := machine(p, mm, 1, seed)
		res := OfflineSend(m, plan)
		if res.Send.MaxSlot > mm {
			return false
		}
		opt := res.OptimalOffline(mm, 1)
		// Send cost is max(h, c_m, L); with no overload c_m = steps used.
		return res.Send.Cost <= opt+float64(res.YBar)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Long messages: flits must land in consecutive steps of the superstep, and
// the consecutive variant pays at most an extra x̄'.
func TestConsecutiveSendLongMessages(t *testing.T) {
	rng := xrand.New(4)
	p, mm, l := 32, 16, 2
	plan := UnbalancedExchangePlan(rng, p, 6)
	m := machine(p, mm, l, 11)
	res := UnbalancedConsecutiveSend(m, plan, Options{})
	wantFlits, wantSum := planChecksum(plan)
	gotFlits, gotSum := deliveredFlits(m)
	if gotFlits != wantFlits || gotSum != wantSum {
		t.Fatalf("delivery mismatch: %d/%d vs %d/%d", gotFlits, gotSum, wantFlits, wantSum)
	}
	xbarPrime := res.XBar // all senders here are non-overloaded
	bound := float64(res.Period+xbarPrime) + res.Tau + 1
	if res.Time > bound {
		t.Fatalf("time %v exceeds (1+ε)n/m + x̄' = %v", res.Time, bound)
	}
}

// Granular send must keep the MaxSlot below m w.h.p. and complete within
// c·n/m (+ x̄ when a sender dominates).
func TestGranularSendBound(t *testing.T) {
	rng := xrand.New(6)
	p, mm := 64, 16
	plan := ZipfPlan(rng, p, 3000, 0.9)
	m := machine(p, mm, 2, 13)
	res := UnbalancedGranularSend(m, plan, Options{GranularC: 4})
	if res.Send.Overload != 0 {
		t.Fatalf("granular send overloaded: MaxSlot=%d m=%d", res.Send.MaxSlot, mm)
	}
	bound := 4*float64(res.N)/float64(mm) + float64(res.XBar) + res.Tau + 1
	if res.Time > bound {
		t.Fatalf("time %v exceeds c·n/m bound %v", res.Time, bound)
	}
}

// KnownN skips the τ protocol entirely.
func TestKnownNSkipsTau(t *testing.T) {
	rng := xrand.New(8)
	p := 16
	plan := UniformPlan(rng, p, 4)
	_, n, _ := plan.Flits(p)
	m := machine(p, 8, 2, 17)
	res := UnbalancedSend(m, plan, Options{KnownN: n})
	if res.Tau != 0 {
		t.Fatalf("τ = %v with KnownN", res.Tau)
	}
	if m.Supersteps() != 1 {
		t.Fatalf("supersteps = %d, want 1", m.Supersteps())
	}
}

func TestTauChargedWhenUnknown(t *testing.T) {
	rng := xrand.New(9)
	p := 16
	plan := UniformPlan(rng, p, 4)
	m := machine(p, 8, 2, 18)
	res := UnbalancedSend(m, plan, Options{})
	if res.Tau <= 0 {
		t.Fatal("τ not charged when n unknown")
	}
	if res.Time <= res.Tau {
		t.Fatal("total time does not include the send")
	}
}

func TestWithOverhead(t *testing.T) {
	rng := xrand.New(10)
	p := 8
	plan := PermutationPlan(rng, p)
	o := 3
	over := plan.WithOverhead(o)
	x0, n0, _ := plan.Flits(p)
	x1, n1, _ := over.Flits(p)
	if n1 != n0+o*p {
		t.Fatalf("overhead total = %d, want %d", n1, n0+o*p)
	}
	for i := range x0 {
		if x1[i] != x0[i]+o*len(plan[i]) {
			t.Fatalf("proc %d overhead flits = %d, want %d", i, x1[i], x0[i]+o)
		}
	}
	// Original plan untouched.
	if plan[0][0].Flits() != 1 {
		t.Fatal("WithOverhead mutated the original plan")
	}
}

func TestWithOverheadNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative overhead accepted")
		}
	}()
	Plan{}.WithOverhead(-1)
}

func TestPlanFlits(t *testing.T) {
	plan := Plan{
		{{Dst: 1, Len: 3}, {Dst: 2}},
		{{Dst: 0}},
		nil,
	}
	x, n, y := plan.Flits(3)
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
	if x[0] != 4 || x[1] != 1 || x[2] != 0 {
		t.Fatalf("x = %v", x)
	}
	if y[0] != 1 || y[1] != 3 || y[2] != 1 {
		t.Fatalf("y = %v", y)
	}
	if plan.MaxLen() != 3 {
		t.Fatalf("MaxLen = %d", plan.MaxLen())
	}
}

func TestResultOptimalOffline(t *testing.T) {
	r := Result{N: 100, XBar: 7, YBar: 30}
	if got := r.OptimalOffline(10, 2); got != 30 {
		t.Fatalf("opt = %v, want 30 (ȳ dominates)", got)
	}
	if got := r.OptimalOffline(2, 2); got != 50 {
		t.Fatalf("opt = %v, want 50 (n/m dominates)", got)
	}
	r2 := Result{N: 1, XBar: 1, YBar: 1}
	if got := r2.OptimalOffline(4, 9); got != 9 {
		t.Fatalf("opt = %v, want 9 (L dominates)", got)
	}
}

func TestBadPlanPanics(t *testing.T) {
	m := machine(4, 2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid dst accepted")
		}
	}()
	UnbalancedSend(m, Plan{{{Dst: 9}}, nil, nil, nil}, Options{})
}

func TestPlanSizeMismatchPanics(t *testing.T) {
	m := machine(4, 2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("short plan accepted")
		}
	}()
	NaiveSend(m, Plan{nil})
}

// Self-scheduling cost metric: the same plan on the self-scheduling BSP(m)
// costs max(w, h, n/m, L), and UnbalancedSend realizes that within (1+ε)+τ
// on the real BSP(m) — the Section 2 claim that the self-scheduling model
// can replace the BSP(m).
func TestSelfSchedulingEmulation(t *testing.T) {
	rng := xrand.New(12)
	p, mm, l := 64, 16, 2
	plan := ZipfPlan(rng, p, 3000, 1.0)

	ss := bsp.New(bsp.Config{P: p, Cost: model.BSPSelfSched(mm, l), Seed: 3})
	ssRes := NaiveSend(ss, plan) // injection times ignored by the metric
	real := machine(p, mm, l, 3)
	realRes := UnbalancedSend(real, plan, Options{Eps: 0.25})

	if realRes.Send.Overload != 0 {
		t.Fatal("scheduled send overloaded")
	}
	limit := (1+0.25)*ssRes.Time + realRes.Tau + float64(realRes.XBar) + 1
	if realRes.Time > limit {
		t.Fatalf("BSP(m) time %v exceeds (1+ε)·self-sched %v + τ", realRes.Time, limit)
	}
}

// Determinism: identical seeds give identical schedules and costs.
func TestSchedulingDeterministic(t *testing.T) {
	rng1 := xrand.New(20)
	rng2 := xrand.New(20)
	p := 32
	p1 := ZipfPlan(rng1, p, 500, 1.0)
	p2 := ZipfPlan(rng2, p, 500, 1.0)
	r1 := UnbalancedSend(machine(p, 8, 2, 44), p1, Options{})
	r2 := UnbalancedSend(machine(p, 8, 2, 44), p2, Options{})
	if r1.Time != r2.Time || r1.Send.MaxSlot != r2.Send.MaxSlot {
		t.Fatalf("nondeterministic: %+v vs %+v", r1, r2)
	}
}

func TestTemplateSendDeliversAndSeparates(t *testing.T) {
	rng := xrand.New(30)
	p, mm := 32, 16
	plan := ZipfPlan(rng, p, 600, 1.0)
	for _, sep := range []int{0, 1, 3} {
		m := machine(p, mm, 2, 31)
		r := TemplateSend(m, plan, sep, Options{Eps: 0.5})
		wantFlits, wantSum := planChecksum(plan)
		gotFlits, gotSum := deliveredFlits(m)
		if gotFlits != wantFlits || gotSum != wantSum {
			t.Fatalf("sep=%d: delivery mismatch", sep)
		}
		if r.Period < (sep+1)*r.N/mm {
			t.Fatalf("sep=%d: period %d not scaled by stride", sep, r.Period)
		}
	}
}

func TestTemplateSendZeroSepMatchesShape(t *testing.T) {
	// sep=0 degenerates to Unbalanced-Send's schedule envelope.
	rng := xrand.New(32)
	p, mm := 32, 16
	plan := UniformPlan(rng, p, 10)
	m := machine(p, mm, 2, 33)
	r := TemplateSend(m, plan, 0, Options{Eps: 0.25, KnownN: 320})
	if r.Send.MaxSlot > mm+2 {
		t.Fatalf("sep=0 overloads: %d > m=%d", r.Send.MaxSlot, mm)
	}
}

func TestTemplateSendNegativePanics(t *testing.T) {
	m := machine(4, 2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative sep accepted")
		}
	}()
	TemplateSend(m, make(Plan, 4), -1, Options{})
}

// The separation property itself: in the sending superstep, consecutive
// messages of any one processor are at least sep+1 slots apart (verified
// via the per-proc slot sets recomputed from a fresh deterministic run).
func TestTemplateSendRespectsSeparation(t *testing.T) {
	p, mm, sep := 16, 8, 2
	plan := make(Plan, p)
	for i := range plan {
		for k := 0; k < 5; k++ {
			plan[i] = append(plan[i], bsp.Msg{Dst: int32((i + 1) % p)})
		}
	}
	m := machine(p, mm, 2, 35)
	r := TemplateSend(m, plan, sep, Options{KnownN: 5 * p})
	// With 5 messages per proc at stride 3, the superstep spans at least
	// (5-1)*3+1 slots for every processor.
	if r.Send.Steps < (5-1)*(sep+1)+1 {
		t.Fatalf("superstep spans %d steps, separation not honored", r.Send.Steps)
	}
}

// Unbalanced-Send's model outcome on the Section 6 skew shapes at the
// sched/static experiment's scale (p=256, m=64, L=8, ε=0.25, scale 16) is
// pinned: summed simulated time and flit count over the four plans. Every
// other scheduler is pinned per plan too — plus an unbalanced exchange, whose
// multi-flit messages cross the period — by N, period, the sending step's
// span and peak load, and the time. Times print with %.9g: an overloaded
// step's penalty goes through math.Exp, whose last bit is host-dependent.
func TestUnbalancedSendFingerprint(t *testing.T) {
	const p, m, l, scale = 256, 64, 8, 16
	rng := xrand.New(1)
	plans := []Plan{
		UniformPlan(rng, p, scale),
		ZipfPlan(rng, p, p*scale, 1.2),
		HalfHalfPlan(rng, p, 2*scale, scale/4+1),
		PointPlan(p, p*scale/4),
	}
	var total model.Time
	n := 0
	for _, plan := range plans {
		r := UnbalancedSend(machine(p, m, l, 1), plan, Options{Eps: 0.25})
		total += r.Time
		n += r.N
	}
	if got, want := fmt.Sprintf("time=%g n=%d", total, n), "time=2482 n=13952"; got != want {
		t.Errorf("fingerprint %q, want %q", got, want)
	}

	plans = append(plans, UnbalancedExchangePlan(rng, p, 4))
	opt := Options{Eps: 0.25}
	bspRuns := []algo{
		{"unbalanced", UnbalancedSend},
		{"consecutive", UnbalancedConsecutiveSend},
		{"granular", UnbalancedGranularSend},
		{"naive", func(m *bsp.Machine, plan Plan, _ Options) Result { return NaiveSend(m, plan) }},
		{"offline", func(m *bsp.Machine, plan Plan, _ Options) Result { return OfflineSend(m, plan) }},
		{"template2", func(m *bsp.Machine, plan Plan, opt Options) Result { return TemplateSend(m, plan, 2, opt) }},
	}
	var got []string
	for _, a := range bspRuns {
		for k, plan := range plans {
			r := a.run(machine(p, m, l, 1), plan, opt)
			got = append(got, fmt.Sprintf("%s/%d N=%d T=%d steps=%d max=%d time=%.9g",
				a.name, k, r.N, r.Period, r.Send.Steps, r.Send.MaxSlot, r.Time))
		}
	}
	qrng := xrand.New(2)
	qplans := []QSMPlan{zipfQSMPlan(qrng, p, p*scale, 64, 1.2), zipfQSMPlan(qrng, p, p*4, 8, 0.5)}
	qsmRuns := []struct {
		name string
		run  func(m *qsm.Machine, plan QSMPlan) QSMResult
	}{
		{"qsm-unbalanced", func(m *qsm.Machine, plan QSMPlan) QSMResult { return UnbalancedSendQSM(m, plan, opt) }},
		{"qsm-consecutive", func(m *qsm.Machine, plan QSMPlan) QSMResult { return UnbalancedConsecutiveSendQSM(m, plan, opt) }},
		{"qsm-naive", NaiveSendQSM},
	}
	for _, a := range qsmRuns {
		for k, plan := range qplans {
			r := a.run(qsmMachineFor(p, p*64, m, 1), plan)
			got = append(got, fmt.Sprintf("%s/%d N=%d T=%d steps=%d max=%d kappa=%d time=%.9g",
				a.name, k, r.N, r.Period, r.Phase.Steps, r.Phase.MaxSlot, r.Phase.Kappa, r.Time))
		}
	}
	qg := qsm.New(qsm.Config{P: p, Mem: p * 64, Cost: model.QSMg(4), Seed: 1})
	r := UnbalancedSendQSM(qg, qplans[0], opt)
	got = append(got, fmt.Sprintf("qsmg-unbalanced N=%d T=%d steps=%d max=%d time=%.9g",
		r.N, r.Period, r.Phase.Steps, r.Phase.MaxSlot, r.Time))

	want := []string{
		"unbalanced/0 N=4096 T=80 steps=80 max=63 time=128",
		"unbalanced/1 N=4096 T=80 steps=1094 max=35 time=1142",
		"unbalanced/2 N=4736 T=92 steps=92 max=63 time=140",
		"unbalanced/3 N=1024 T=20 steps=1024 max=1 time=1072",
		"unbalanced/4 N=130291 T=2544 steps=2547 max=63 time=2595",
		"consecutive/0 N=4096 T=80 steps=95 max=63 time=143",
		"consecutive/1 N=4096 T=80 steps=1094 max=35 time=1142",
		"consecutive/2 N=4736 T=92 steps=123 max=60 time=171",
		"consecutive/3 N=1024 T=20 steps=1024 max=1 time=1072",
		"consecutive/4 N=130291 T=2544 steps=3054 max=63 time=3076",
		"granular/0 N=4096 T=256 steps=240 max=25 time=288",
		"granular/1 N=4096 T=256 steps=1094 max=34 time=1142",
		"granular/2 N=4736 T=296 steps=275 max=38 time=319",
		"granular/3 N=1024 T=64 steps=1024 max=1 time=1072",
		"granular/4 N=130291 T=8143 steps=7633 max=39 time=7681",
		"naive/0 N=4096 T=0 steps=16 max=256 time=321.368591",
		"naive/1 N=4096 T=0 steps=1094 max=235 time=1120.98304",
		"naive/2 N=4736 T=0 steps=32 max=256 time=173.821294",
		"naive/3 N=1024 T=0 steps=1024 max=1 time=1024",
		"naive/4 N=130291 T=0 steps=565 max=256 time=9859.79225",
		"offline/0 N=4096 T=64 steps=64 max=64 time=64",
		"offline/1 N=4096 T=1094 steps=1094 max=4 time=1094",
		"offline/2 N=4736 T=74 steps=74 max=64 time=74",
		"offline/3 N=1024 T=1024 steps=1024 max=1 time=1024",
		"offline/4 N=130291 T=2036 steps=2039 max=64 time=2039",
		"template2/0 N=4096 T=240 steps=240 max=30 time=288",
		"template2/1 N=4096 T=240 steps=3280 max=24 time=1302",
		"template2/2 N=4736 T=277 steps=277 max=25 time=325",
		"template2/3 N=1024 T=60 steps=3070 max=1 time=1072",
		"template2/4 N=130291 T=7634 steps=7637 max=31 time=7685",
		"qsm-unbalanced/0 N=2180 T=42 steps=64 max=55 kappa=1 time=102",
		"qsm-unbalanced/1 N=903 T=17 steps=17 max=68 kappa=1 time=55.0644945",
		"qsm-consecutive/0 N=2180 T=42 steps=76 max=55 kappa=1 time=114",
		"qsm-consecutive/1 N=903 T=17 steps=24 max=68 kappa=1 time=62.0644945",
		"qsm-naive/0 N=2180 T=0 steps=64 max=241 kappa=1 time=91.4046405",
		"qsm-naive/1 N=903 T=0 steps=8 max=245 kappa=1 time=36.3228008",
		"qsmg-unbalanced N=2180 T=10 steps=64 max=123 time=356",
	}
	if len(got) != len(want) {
		t.Fatalf("%d fingerprint lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("fingerprint %q, want %q", got[k], want[k])
		}
	}
}
