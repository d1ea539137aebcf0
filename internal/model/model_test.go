package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinearPenalty(t *testing.T) {
	cases := []struct {
		mt, m int
		want  Time
	}{
		{0, 8, 0},
		{-3, 8, 0},
		{1, 8, 1},
		{8, 8, 1},
		{9, 8, 9.0 / 8},
		{80, 8, 10},
	}
	for _, c := range cases {
		if got := LinearPenalty(c.mt, c.m); got != c.want {
			t.Errorf("LinearPenalty(%d,%d) = %v, want %v", c.mt, c.m, got, c.want)
		}
	}
}

func TestExpPenalty(t *testing.T) {
	if got := ExpPenalty(0, 8); got != 0 {
		t.Errorf("ExpPenalty(0) = %v", got)
	}
	if got := ExpPenalty(8, 8); got != 1 {
		t.Errorf("ExpPenalty(m) = %v, want 1", got)
	}
	want := math.Exp(16.0/8 - 1)
	if got := ExpPenalty(16, 8); math.Abs(got-want) > 1e-12 {
		t.Errorf("ExpPenalty(2m) = %v, want %v", got, want)
	}
	if got := ExpPenalty(1<<30, 8); got != MaxPenalty {
		t.Errorf("ExpPenalty huge = %v, want saturation %v", got, MaxPenalty)
	}
}

// The paper notes f^u(m_t) >= f^ℓ(m_t) for all m_t >= m; check it holds in
// general for m_t >= 0 in this implementation.
func TestExpDominatesLinear(t *testing.T) {
	f := func(mtRaw, mRaw uint16) bool {
		m := int(mRaw%1000) + 1
		mt := int(mtRaw)
		return ExpPenalty(mt, m) >= LinearPenalty(mt, m)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPenaltyMonotone(t *testing.T) {
	m := 16
	prevL, prevE := Time(0), Time(0)
	for mt := 0; mt < 400; mt++ {
		l, e := LinearPenalty(mt, m), ExpPenalty(mt, m)
		if l < prevL || e < prevE {
			t.Fatalf("penalty decreased at mt=%d", mt)
		}
		prevL, prevE = l, e
	}
}

func TestCM(t *testing.T) {
	c := BSPmLinear(4, 1)
	// slots: 0, 3, 4, 8 -> 0 + 1 + 1 + 2 = 4
	if got := c.CM([]int{0, 3, 4, 8}); got != 4 {
		t.Fatalf("CM = %v, want 4", got)
	}
	ce := BSPm(4, 1)
	want := 1 + math.Exp(8.0/4-1)
	if got := ce.CM([]int{4, 8}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CM exp = %v, want %v", got, want)
	}
}

func TestBSPSuperstepBSPg(t *testing.T) {
	c := BSPg(4, 10)
	// max(w=3, g*h=4*5=20, L=10) = 20
	if got := c.BSPSuperstep(3, 5, 100, 0); got != 20 {
		t.Fatalf("BSP(g) cost = %v, want 20", got)
	}
	// latency floor
	if got := c.BSPSuperstep(0, 0, 0, 0); got != 10 {
		t.Fatalf("BSP(g) idle cost = %v, want L=10", got)
	}
}

func TestBSPSuperstepBSPm(t *testing.T) {
	c := BSPmLinear(4, 2)
	// hist of 3 slots at exactly m: c_m = 3; h=2, w=1 -> 3
	if got := c.BSPSuperstep(1, 2, 12, c.CM([]int{4, 4, 4})); got != 3 {
		t.Fatalf("BSP(m) cost = %v, want 3", got)
	}
	// h dominates
	if got := c.BSPSuperstep(1, 9, 12, c.CM([]int{4, 4, 4})); got != 9 {
		t.Fatalf("BSP(m) h-dominated cost = %v, want 9", got)
	}
}

func TestBSPSuperstepSelfSched(t *testing.T) {
	c := BSPSelfSched(4, 2)
	// max(w=1, h=3, n/m=40/4=10, L=2) = 10
	if got := c.BSPSuperstep(1, 3, 40, 0); got != 10 {
		t.Fatalf("self-sched cost = %v, want 10", got)
	}
}

func TestQSMPhase(t *testing.T) {
	g := QSMg(3)
	// max(w=2, g*h=3*4=12, κ=5) = 12
	if got := g.QSMPhase(2, 4, 5, 0); got != 12 {
		t.Fatalf("QSM(g) cost = %v, want 12", got)
	}
	// h floor of 1: max(w=0, g*1=3, κ=0) = 3
	if got := g.QSMPhase(0, 0, 0, 0); got != 3 {
		t.Fatalf("QSM(g) idle cost = %v, want 3", got)
	}
	m := QSMm(4)
	m.Penalty = LinearPenalty
	// max(w=0, h=2, κ=9, c_m=2) = 9
	if got := m.QSMPhase(0, 2, 9, m.CM([]int{4, 4})); got != 9 {
		t.Fatalf("QSM(m) cost = %v, want 9", got)
	}
}

func TestValidate(t *testing.T) {
	if err := BSPg(2, 4).Validate(8); err != nil {
		t.Fatalf("valid BSP(g) rejected: %v", err)
	}
	if err := BSPg(0, 4).Validate(8); err == nil {
		t.Fatal("g=0 accepted")
	}
	if err := BSPm(0, 4).Validate(8); err == nil {
		t.Fatal("m=0 accepted")
	}
	if err := BSPm(4, 0).Validate(8); err == nil {
		t.Fatal("L=0 accepted for BSP(m)")
	}
	if err := QSMg(2).Validate(8); err != nil {
		t.Fatalf("QSM(g) without L rejected: %v", err)
	}
	if err := QSMm(2).Validate(0); err == nil {
		t.Fatal("p=0 accepted")
	}
	if err := (Cost{Kind: Kind(99)}).Validate(4); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindBSPg: "BSP(g)", KindBSPm: "BSP(m)", KindBSPSelfSched: "ss-BSP(m)",
		KindQSMg: "QSM(g)", KindQSMm: "QSM(m)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// The emulation observation of Section 4: a locally-limited superstep cost
// always dominates the corresponding globally-limited cost when m = p/g and
// the injections are spread as in the grouped emulation (g substeps, each
// with at most p/g = m messages). We check cost-model consistency: spreading
// n <= p messages, one per processor, over g substeps of m injections each
// costs max(h, g) <= g·h on BSP(m) versus g·h on BSP(g).
func TestGroupedEmulationCostDominance(t *testing.T) {
	f := func(pRaw, gRaw uint8) bool {
		g := int(gRaw%6) + 1
		groups := int(pRaw%50) + 1
		p := g * groups
		m := p / g
		local, global := BSPg(g, 1), BSPmLinear(m, 1)
		// One message per processor, emulated in g substeps of m messages.
		h := 1
		slots := make([]int, g)
		for t := range slots {
			slots[t] = m
		}
		lc := local.BSPSuperstep(0, h, p, 0)
		gc := global.BSPSuperstep(0, h, p, global.CM(slots))
		return gc <= lc+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCMSaturates(t *testing.T) {
	c := BSPm(1, 1)
	slots := make([]int, 4)
	for i := range slots {
		slots[i] = 1 << 30 // each step individually saturates
	}
	if got := c.CM(slots); got != MaxPenalty {
		t.Fatalf("CM = %v, want saturation", got)
	}
}

func TestKindStringUnknown(t *testing.T) {
	if Kind(99).String() != "Kind(99)" {
		t.Fatalf("unknown kind string = %q", Kind(99).String())
	}
}

func TestPenaltyDefaultIsExponential(t *testing.T) {
	c := Cost{Kind: KindBSPm, M: 2, L: 1} // Penalty nil
	if got := c.CM([]int{8}); got != ExpPenalty(8, 2) {
		t.Fatalf("default penalty = %v, want exponential", got)
	}
}

func TestBSPSuperstepPanicsOnQSMKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("QSM kind accepted by BSPSuperstep")
		}
	}()
	QSMg(2).BSPSuperstep(1, 1, 1, 0)
}

func TestQSMPhasePanicsOnBSPKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BSP kind accepted by QSMPhase")
		}
	}()
	BSPg(2, 2).QSMPhase(1, 1, 1, 0)
}

func TestGlobalAndShared(t *testing.T) {
	cases := []struct {
		c              Cost
		global, shared bool
	}{
		{BSPg(2, 1), false, false},
		{BSPm(2, 1), true, false},
		{BSPSelfSched(2, 1), true, false},
		{QSMg(2), false, true},
		{QSMm(2), true, true},
	}
	for _, tc := range cases {
		if tc.c.Global() != tc.global || tc.c.SharedMemory() != tc.shared {
			t.Fatalf("%v: Global/Shared = %v/%v", tc.c.Kind, tc.c.Global(), tc.c.SharedMemory())
		}
	}
}

func TestBudget(t *testing.T) {
	cases := []struct {
		c    Cost
		p    int
		want int
	}{
		{BSPg(4, 2), 64, 64},
		{BSPm(8, 2), 64, 8},
		{BSPmLinear(8, 2), 64, 8},
		{BSPSelfSched(8, 2), 64, 8},
		{QSMg(4), 64, 64},
		{QSMm(8), 64, 8},
		{QSMm(128), 64, 128}, // not clamped to p
	}
	for _, c := range cases {
		if got := c.c.Budget(c.p); got != c.want {
			t.Errorf("%v.Budget(%d) = %d, want %d", c.c.Kind, c.p, got, c.want)
		}
	}
}

func TestPeriod(t *testing.T) {
	cases := []struct {
		n, m int
		eps  float64
		want int
	}{
		{10, 0, 0.25, 1},  // locally-limited machine: m = 0
		{0, 0, 0.25, 1},   // 0/0
		{10, -1, 0.25, 1}, // negative budget
		{0, 4, 0.25, 1},   // no flits: the floor of 1
		{5, 4, 0.25, 1},   // ⌊1.5625⌋: the floor, not the ceiling
		{100, 8, 0.25, 15},
		{100, 8, 0, 12},
		{1 << 30, 3, 0.5, 1 << 29}, // large n, fits a 32-bit int
	}
	for _, c := range cases {
		if got := Period(c.n, c.m, c.eps); got != c.want {
			t.Errorf("Period(%d, %d, %v) = %d, want %d", c.n, c.m, c.eps, got, c.want)
		}
	}
}

func TestSlots(t *testing.T) {
	hist := []int{0, 3, 4, 8, 5}
	cases := []struct {
		c        Cost
		overload int
		cm       Time
	}{
		{BSPg(4, 2), 0, 0},
		{BSPmLinear(4, 2), 2, 0 + 1 + 1 + 2 + 5.0/4},
		{BSPm(4, 2), 2, 1 + 1 + math.Exp(8.0/4-1) + math.Exp(5.0/4-1)},
		{BSPSelfSched(4, 2), 2, 0},
		{QSMg(4), 0, 0},
		{QSMmLinear(4), 2, 0 + 1 + 1 + 2 + 5.0/4},
		{QSMm(4), 2, 1 + 1 + math.Exp(8.0/4-1) + math.Exp(5.0/4-1)},
	}
	for _, c := range cases {
		peak, overload, cm := c.c.Slots(hist)
		if peak != 8 || overload != c.overload || math.Abs(cm-c.cm) > 1e-12 {
			t.Errorf("%v.Slots = (%d, %d, %v), want (8, %d, %v)", c.c.Kind, peak, overload, cm, c.overload, c.cm)
		}
	}
	if peak, overload, cm := BSPm(4, 2).Slots(nil); peak != 0 || overload != 0 || cm != 0 {
		t.Errorf("empty Slots = (%d, %d, %v), want zeros", peak, overload, cm)
	}
}
