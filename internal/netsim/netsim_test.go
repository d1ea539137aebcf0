package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"parbw/internal/xrand"
)

func TestSingleSourceDrains(t *testing.T) {
	res := Run(Config{Sources: 1, Channels: 4, Seed: 1}, [][]int{{0, 1, 2, 3, 4}})
	if res.Delivered != 5 || res.Truncated {
		t.Fatalf("single source failed to drain: %+v", res)
	}
	// Alone on the network: no collisions, one delivery per step.
	if res.Collided != 0 || res.Makespan != 5 {
		t.Fatalf("lone source collided or stalled: %+v", res)
	}
}

func TestAllFlitsDelivered(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p := 2 + int(seed%10)
		x := make([]int, p)
		total := 0
		for i := range x {
			x[i] = rng.Intn(8)
			total += x[i]
		}
		res := Run(Config{Sources: p, Channels: 4, Seed: seed}, NaiveSchedule(x))
		return res.Delivered == total && !res.Truncated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleShapes(t *testing.T) {
	x := []int{3, 0, 5}
	nv := NaiveSchedule(x)
	if len(nv[0]) != 3 || len(nv[1]) != 0 || len(nv[2]) != 5 {
		t.Fatal("NaiveSchedule counts wrong")
	}
	if nv[2][4] != 4 {
		t.Fatal("NaiveSchedule not back-to-back")
	}
	rng := xrand.New(2)
	ub := UnbalancedSchedule(rng, x, 2, 0.25)
	if len(ub[0]) != 3 || len(ub[2]) != 5 {
		t.Fatal("UnbalancedSchedule counts wrong")
	}
}

func TestExpectedThroughput(t *testing.T) {
	if ExpectedThroughput(0, 4) != 0 {
		t.Fatal("zero contenders")
	}
	if ExpectedThroughput(1, 4) != 1 {
		t.Fatal("single contender should always deliver")
	}
	// k=m: ≈ m·e^{-1}-ish; monotone collapse beyond.
	m := 16
	peak := ExpectedThroughput(m, m)
	deep := ExpectedThroughput(8*m, m)
	if deep >= peak/10 {
		t.Fatalf("throughput did not collapse: k=m gives %v, k=8m gives %v", peak, deep)
	}
}

// The validation claim: a paced (Unbalanced-Send) schedule completes near
// n/m on the contention network, while the naive burst suffers the
// exponential collapse and takes several times longer.
func TestScheduledBeatsNaiveOnChannels(t *testing.T) {
	p, m := 64, 8
	x := make([]int, p)
	for i := range x {
		x[i] = 16
	}
	n := p * 16
	rng := xrand.New(3)
	// Slotted-ALOHA capacity is m/e, so pace for load 0.2·m (ε = 4): the
	// abstract BSP(m) bandwidth corresponds to an ALOHA network's m/e.
	eps := 4.0
	paced := Run(Config{Sources: p, Channels: m, Seed: 7},
		UnbalancedSchedule(rng, x, m, eps))
	burst := Run(Config{Sources: p, Channels: m, Seed: 7}, NaiveSchedule(x))
	if paced.Truncated || burst.Truncated {
		t.Fatalf("runs truncated: %+v %+v", paced, burst)
	}
	if burst.Makespan < 2*paced.Makespan {
		t.Fatalf("burst (%d) not ≫ paced (%d)", burst.Makespan, paced.Makespan)
	}
	// Paced drains close to its planned period T = (1+ε)n/m.
	T := (1 + eps) * float64(n) / float64(m)
	if float64(paced.Makespan) > 2*T {
		t.Fatalf("paced makespan %d vs planned period %v", paced.Makespan, T)
	}
}

func TestGoodputCollapseMatchesFormula(t *testing.T) {
	// Empirical single-step success rate at k contenders ≈ k(1-1/m)^{k-1}.
	p, m := 64, 8
	x := make([]int, p)
	for i := range x {
		x[i] = 50
	}
	res := Run(Config{Sources: p, Channels: m, Seed: 9}, NaiveSchedule(x))
	// During the long saturated phase all p sources contend; goodput should
	// be near ExpectedThroughput(p, m) per step, which is tiny.
	pred := ExpectedThroughput(p, m)
	if math.Abs(res.Goodput-pred)/math.Max(pred, res.Goodput) > 0.9 {
		t.Fatalf("goodput %v wildly off prediction %v", res.Goodput, pred)
	}
	if res.Goodput > float64(m)/4 {
		t.Fatalf("saturated goodput %v did not collapse (m=%d)", res.Goodput, m)
	}
}

func TestValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config accepted")
		}
	}()
	Run(Config{Sources: 2, Channels: 0}, make([][]int, 2))
}

func TestPlannedSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched planned accepted")
		}
	}()
	Run(Config{Sources: 3, Channels: 1}, make([][]int, 2))
}

func TestTruncation(t *testing.T) {
	// An impossible drain within 3 steps must report truncation.
	res := Run(Config{Sources: 4, Channels: 1, Seed: 1, MaxSteps: 3},
		NaiveSchedule([]int{5, 5, 5, 5}))
	if !res.Truncated {
		t.Fatal("truncation not reported")
	}
}

func TestBackoffDrains(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p := 2 + int(seed%10)
		x := make([]int, p)
		total := 0
		for i := range x {
			x[i] = rng.Intn(8)
			total += x[i]
		}
		res := RunBackoff(Config{Sources: p, Channels: 2, Seed: seed}, NaiveSchedule(x))
		return res.Delivered == total && !res.Truncated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Backoff rescues the naive burst from the ALOHA death spiral: on a heavy
// burst it finishes orders of magnitude before the no-backoff protocol,
// but a paced schedule still beats both.
func TestBackoffBetweenNaiveAndPaced(t *testing.T) {
	p, m := 64, 8
	x := make([]int, p)
	for i := range x {
		x[i] = 16
	}
	rng := xrand.New(5)
	paced := Run(Config{Sources: p, Channels: m, Seed: 11},
		UnbalancedSchedule(rng, x, m, 4.0))
	burstNoBackoff := Run(Config{Sources: p, Channels: m, Seed: 11}, NaiveSchedule(x))
	burstBackoff := RunBackoff(Config{Sources: p, Channels: m, Seed: 11}, NaiveSchedule(x))
	if burstBackoff.Makespan >= burstNoBackoff.Makespan {
		t.Fatalf("backoff (%d) did not improve on blind retry (%d)",
			burstBackoff.Makespan, burstNoBackoff.Makespan)
	}
	if paced.Makespan >= burstBackoff.Makespan {
		t.Fatalf("paced (%d) lost to backoff burst (%d)", paced.Makespan, burstBackoff.Makespan)
	}
}

func TestBackoffValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config accepted")
		}
	}()
	RunBackoff(Config{Sources: 1, Channels: 0}, make([][]int, 1))
}
