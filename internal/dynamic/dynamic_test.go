package dynamic

import (
	"fmt"
	"testing"

	"parbw/internal/bsp"
	"parbw/internal/model"
	"parbw/internal/sched"
)

func bspgM(p, g, l int) *bsp.Machine {
	return bsp.New(bsp.Config{P: p, Cost: model.BSPg(g, l), Seed: 1})
}

func bspmM(p, mm, l int) *bsp.Machine {
	return bsp.New(bsp.Config{P: p, Cost: model.BSPm(mm, l), Seed: 1})
}

func TestLimits(t *testing.T) {
	l := Limits{W: 10, Alpha: 2.5, Beta: 0.3}
	if l.MaxPerWindow() != 25 {
		t.Fatalf("⌈αw⌉ = %d, want 25", l.MaxPerWindow())
	}
	if l.MaxLocalPerWindow() != 3 {
		t.Fatalf("⌈βw⌉ = %d, want 3", l.MaxLocalPerWindow())
	}
	l2 := Limits{W: 10, Alpha: 0.21, Beta: 0.21}
	if l2.MaxPerWindow() != 3 {
		t.Fatalf("⌈0.21·10⌉ = %d, want 3", l2.MaxPerWindow())
	}
}

func TestUniformAdversaryRespectsLimits(t *testing.T) {
	p := 16
	l := Limits{W: 32, Alpha: 4, Beta: 0.5}
	adv := NewUniformAdversary(p, l, 3)
	if err := Validate(adv, l, p, 20*l.W, false); err != nil {
		t.Fatalf("uniform adversary violated limits: %v", err)
	}
}

func TestSingleTargetAdversaryRespectsLimits(t *testing.T) {
	l := Limits{W: 16, Alpha: 1, Beta: 0.75}
	adv := SingleTargetAdversary{L: l}
	if err := Validate(adv, l, 8, 30*l.W, false); err != nil {
		t.Fatalf("single-target adversary violated limits: %v", err)
	}
}

func TestBurstAdversaryRespectsAlignedLimits(t *testing.T) {
	p := 16
	l := Limits{W: 32, Alpha: 3, Beta: 1}
	adv := NewBurstAdversary(p, l, 4)
	if err := Validate(adv, l, p, 20*l.W, true); err != nil {
		t.Fatalf("burst adversary violated aligned limits: %v", err)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	l := Limits{W: 4, Alpha: 0.25, Beta: 0.25}
	// An adversary injecting every step at rate 1 > α.
	bad := adversaryFunc(func(t int) []Arrival { return []Arrival{{Src: 0, Dst: 1}} })
	if err := Validate(bad, l, 4, 40, false); err == nil {
		t.Fatal("over-rate adversary accepted")
	}
	oob := adversaryFunc(func(t int) []Arrival { return []Arrival{{Src: 9, Dst: 0}} })
	if err := Validate(oob, l, 4, 8, false); err == nil {
		t.Fatal("out-of-range arrival accepted")
	}
}

type adversaryFunc func(t int) []Arrival

func (f adversaryFunc) Step(t int) []Arrival { return f(t) }

// Theorem 6.5, stable direction: β <= 1/g keeps the BSP(g) interval router
// stable.
func TestBSPgStableBelowThreshold(t *testing.T) {
	p, g, lL := 16, 4, 4
	l := Limits{W: 32, Alpha: 1, Beta: 1.0 / float64(g)}
	adv := NewUniformAdversary(p, l, 5)
	m := bspgM(p, g, lL)
	res := RunBSPgInterval(m, adv, l, 60)
	if !res.LooksStable() {
		t.Fatalf("BSP(g) unstable below threshold: backlog %v", res.Backlog)
	}
}

// Theorem 6.5, unstable direction: a single-source flow at β > 1/g grows
// without bound on the BSP(g).
func TestBSPgUnstableAboveThreshold(t *testing.T) {
	p, g, lL := 16, 8, 4
	l := Limits{W: 32, Alpha: 0.5, Beta: 0.5} // β = 0.5 > 1/g = 0.125
	adv := SingleTargetAdversary{L: l}
	m := bspgM(p, g, lL)
	res := RunBSPgInterval(m, adv, l, 80)
	if res.LooksStable() {
		t.Fatalf("BSP(g) stable above threshold: backlog %v", res.Backlog)
	}
	// Linear growth: final backlog near max.
	if res.Backlog[len(res.Backlog)-1] < res.MaxBacklog/2 {
		t.Fatalf("backlog not growing: %v", res.Backlog)
	}
}

// Theorem 6.7: the same β ≫ 1/g flow is easily stable on the BSP(m) with
// matched aggregate bandwidth m = p/g.
func TestBSPmStableWhereBSPgIsNot(t *testing.T) {
	p, g, lL := 16, 8, 4
	mm := p / g
	l := Limits{W: 32, Alpha: 0.5, Beta: 0.5}
	adv := SingleTargetAdversary{L: l}
	m := bspmM(p, mm, lL)
	res := RunAlgorithmB(m, adv, l, 80, 0.25)
	if !res.LooksStable() {
		t.Fatalf("BSP(m) unstable on single-target flow: backlog %v", res.Backlog)
	}
	if res.TotalSent == 0 {
		t.Fatal("nothing sent")
	}
}

// Algorithm B stability at high global rate: α close to m (with u slack).
func TestAlgorithmBStableNearCapacity(t *testing.T) {
	p, mm, lL := 32, 8, 2
	l := Limits{W: 64, Alpha: float64(mm) * 0.5, Beta: 0.5}
	adv := NewUniformAdversary(p, l, 7)
	if err := Validate(adv, l, p, 10*l.W, false); err != nil {
		t.Fatalf("adversary invalid: %v", err)
	}
	m := bspmM(p, mm, lL)
	res := RunAlgorithmB(m, adv, l, 100, 0.25)
	if !res.LooksStable() {
		t.Fatalf("Algorithm B unstable at α = m/2: backlog %v", res.Backlog)
	}
}

// Overload direction: α > m cannot be stable on the BSP(m) either (the
// network moves only m per step).
func TestAlgorithmBUnstableAboveCapacity(t *testing.T) {
	p, mm, lL := 32, 4, 2
	l := Limits{W: 64, Alpha: float64(mm) * 2.5, Beta: 1}
	adv := NewUniformAdversary(p, l, 9)
	m := bspmM(p, mm, lL)
	res := RunAlgorithmB(m, adv, l, 80, 0.25)
	if res.LooksStable() {
		t.Fatalf("Algorithm B stable above network capacity: backlog %v", res.Backlog)
	}
}

// Expected service time stays within the Theorem 6.7 O(w²/u) regime: for a
// lightly loaded system it should be O(w).
func TestAlgorithmBServiceTime(t *testing.T) {
	p, mm, lL := 32, 8, 2
	l := Limits{W: 64, Alpha: 2, Beta: 0.25}
	adv := NewUniformAdversary(p, l, 11)
	m := bspmM(p, mm, lL)
	res := RunAlgorithmB(m, adv, l, 100, 0.25)
	if res.MeanService() > float64(l.W) {
		t.Fatalf("mean service %v exceeds w = %d at light load", res.MeanService(), l.W)
	}
}

func TestRunAlgorithmBRejectsLocalMachine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("local machine accepted")
		}
	}()
	RunAlgorithmB(bspgM(4, 2, 1), SingleTargetAdversary{L: Limits{W: 4, Alpha: 1, Beta: 1}}, Limits{W: 4, Alpha: 1, Beta: 1}, 2, 0.25)
}

func TestRunBSPgIntervalRejectsGlobalMachine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("global machine accepted")
		}
	}()
	RunBSPgInterval(bspmM(4, 2, 1), SingleTargetAdversary{L: Limits{W: 4, Alpha: 1, Beta: 1}}, Limits{W: 4, Alpha: 1, Beta: 1}, 2)
}

func TestLooksStable(t *testing.T) {
	if !(Result{Backlog: []int{5, 5, 5, 5, 5, 5}}).LooksStable() {
		t.Fatal("flat backlog judged unstable")
	}
	if (Result{Backlog: []int{1, 2, 40, 80, 160, 320}}).LooksStable() {
		t.Fatal("growing backlog judged stable")
	}
	if !(Result{}).LooksStable() {
		t.Fatal("empty result should be stable")
	}
}

func TestMeanService(t *testing.T) {
	r := Result{ServiceTimes: []float64{1, 2, 3}}
	if r.MeanService() != 2 {
		t.Fatalf("MeanService = %v", r.MeanService())
	}
	if (Result{}).MeanService() != 0 {
		t.Fatal("empty MeanService != 0")
	}
}

// Theorem 6.7 parameterized over A: Algorithm B with the consecutive-flit
// scheduler stays stable on long-message traffic when rates leave room for
// the flit multiplier.
func TestAlgorithmBWithFlits(t *testing.T) {
	p, mm, lL := 16, 8, 2
	flits := 4
	// α·flits per window must stay well under m: α = m/(4·flits).
	l := Limits{W: 64, Alpha: float64(mm) / float64(4*flits), Beta: 0.25}
	adv := NewUniformAdversary(p, l, 21)
	m := bspmM(p, mm, lL)
	res := RunAlgorithmBWith(m, adv, l, 80, flits, sched.UnbalancedConsecutiveSend, 0.25)
	if !res.LooksStable() {
		t.Fatalf("flit Algorithm B unstable: backlog %v", res.Backlog)
	}
	if res.TotalSent == 0 {
		t.Fatal("nothing sent")
	}
}

// Overloading the flit budget (α·flits > m) must destabilize.
func TestAlgorithmBWithFlitsOverload(t *testing.T) {
	p, mm, lL := 16, 4, 2
	flits := 8
	l := Limits{W: 64, Alpha: float64(mm), Beta: 1} // α·flits = 8m ≫ m
	adv := NewUniformAdversary(p, l, 22)
	m := bspmM(p, mm, lL)
	res := RunAlgorithmBWith(m, adv, l, 60, flits, sched.UnbalancedConsecutiveSend, 0.25)
	if res.LooksStable() {
		t.Fatalf("flit-overloaded Algorithm B reported stable: backlog %v", res.Backlog)
	}
}

// Algorithm B's outcome is pinned for both static schedulers at one and two
// flits per message: the window loop drives the bsp send path (SendAt runs,
// schedule validation, routing), so a change there that moves a delivery,
// a backlog or a charged step moves one of these strings.
func TestAlgorithmBFingerprint(t *testing.T) {
	p, mm, lL := 16, 4, 2
	l := Limits{W: 32, Alpha: 1, Beta: 0.5}
	for _, tc := range []struct {
		name     string
		schedule func(*bsp.Machine, sched.Plan, sched.Options) sched.Result
		flits    int
		want     string
	}{
		{"unbalanced/1", sched.UnbalancedSend, 1,
			"windows=40 sent=1240 maxbacklog=31 service=10.4855887 time=419.423547 supersteps=40"},
		{"unbalanced/2", sched.UnbalancedSend, 2,
			"windows=40 sent=1240 maxbacklog=31 service=21.505266 time=860.210641 supersteps=40"},
		{"consecutive/1", sched.UnbalancedConsecutiveSend, 1,
			"windows=40 sent=1240 maxbacklog=31 service=11.0889513 time=443.558054 supersteps=40"},
		{"consecutive/2", sched.UnbalancedConsecutiveSend, 2,
			"windows=40 sent=1240 maxbacklog=31 service=22.5497492 time=901.989967 supersteps=40"},
	} {
		m := bspmM(p, mm, lL)
		r := RunAlgorithmBWith(m, NewUniformAdversary(p, l, 23), l, 40, tc.flits, tc.schedule, 0.25)
		got := fmt.Sprintf("windows=%d sent=%d maxbacklog=%d service=%.9g time=%.9g supersteps=%d",
			r.Windows, r.TotalSent, r.MaxBacklog, r.MeanService(), m.Time(), m.Supersteps())
		if got != tc.want {
			t.Errorf("%s: fingerprint %q, want %q", tc.name, got, tc.want)
		}
	}
}
