package collective

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"parbw/internal/bsp"
	"parbw/internal/engine"
	"parbw/internal/model"
	"parbw/internal/qsm"
)

func bspMachine(p int, cost model.Cost) *bsp.Machine {
	return bsp.New(bsp.Config{P: p, Cost: cost, Seed: 7})
}

func qsmMachine(p int, cost model.Cost) *qsm.Machine {
	return qsm.New(qsm.Config{P: p, Mem: 2 * p, Cost: cost, Seed: 7})
}

// stepLog returns an observer that appends every committed step to *log,
// its histogram copied out of the engine's recycled buffer.
func stepLog(log *[]engine.StepStats) engine.Observer {
	return engine.ObserverFunc(func(st engine.StepStats) {
		st.Hist = slices.Clone(st.Hist)
		*log = append(*log, st)
	})
}

// noOverload fails t if any logged step of the named run overloaded the
// network.
func noOverload(t *testing.T, run string, log []engine.StepStats) {
	t.Helper()
	for i, st := range log {
		if st.Overload != 0 {
			t.Fatalf("%s: step %d overloaded: %+v", run, i, st)
		}
	}
}

func qsmmLin(m int) model.Cost {
	c := model.QSMm(m)
	c.Penalty = model.LinearPenalty
	return c
}

var bspCosts = []model.Cost{
	model.BSPg(4, 8),
	model.BSPg(1, 1),
	model.BSPmLinear(4, 4),
	model.BSPmLinear(1, 2),
	model.BSPSelfSched(4, 4),
}

var qsmCosts = []model.Cost{
	model.QSMg(4),
	model.QSMg(1),
	qsmmLin(4),
	qsmmLin(1),
}

func TestBroadcastBSPAllModels(t *testing.T) {
	for _, cost := range bspCosts {
		for _, p := range []int{1, 2, 3, 16, 33, 64} {
			for _, root := range []int{0, p / 2, p - 1} {
				var log []engine.StepStats
				m := bsp.New(bsp.Config{P: p, Cost: cost, Seed: 7, Observer: stepLog(&log)})
				out := BroadcastBSP(m, root, 42)
				for i, v := range out {
					if v != 42 {
						t.Fatalf("%v p=%d root=%d: proc %d got %d", cost.Kind, p, root, i, v)
					}
				}
				if cost.Global() {
					noOverload(t, fmt.Sprintf("%v p=%d root=%d broadcast", cost.Kind, p, root), log)
				}
			}
		}
	}
}

func TestBroadcastBSPNoOverloadEver(t *testing.T) {
	// Under the exponential penalty, a correct BSP(m) broadcast must never
	// exceed m injections in a step, or time explodes.
	cost := model.BSPm(4, 4)
	var log []engine.StepStats
	m := bsp.New(bsp.Config{P: 128, Cost: cost, Seed: 3, Observer: stepLog(&log)})
	BroadcastBSP(m, 5, 9)
	noOverload(t, "broadcast", log)
}

func TestBroadcastBSPSeparation(t *testing.T) {
	// Matched aggregate bandwidth: BSP(m) broadcast should be faster than
	// BSP(g) broadcast for large g (Table 1 row 2 shape).
	p, g, l := 1024, 32, 32
	lm := bspMachine(p, model.BSPg(g, l))
	gm := bspMachine(p, model.BSPmLinear(p/g, l))
	BroadcastBSP(lm, 0, 1)
	BroadcastBSP(gm, 0, 1)
	if gm.Time() >= lm.Time() {
		t.Fatalf("BSP(m) broadcast (%v) not faster than BSP(g) (%v)", gm.Time(), lm.Time())
	}
}

func TestBroadcastTernary(t *testing.T) {
	for _, p := range []int{2, 3, 9, 27, 40, 81} {
		for _, bit := range []int64{0, 1} {
			m := bspMachine(p, model.BSPg(8, 4))
			out := BroadcastTernaryBSPg(m, bit)
			for i, v := range out {
				if v != bit {
					t.Fatalf("p=%d bit=%d: proc %d decoded %d", p, bit, i, v)
				}
			}
		}
	}
}

func TestBroadcastTernaryCost(t *testing.T) {
	// Time should be g·⌈log₃ p⌉ when L <= g: each superstep costs g
	// (h = 1) and there are ⌈log₃ p⌉ supersteps.
	p, g, l := 81, 8, 8
	m := bspMachine(p, model.BSPg(g, l))
	BroadcastTernaryBSPg(m, 1)
	want := float64(g * 4) // log₃ 81 = 4
	if m.Time() != want {
		t.Fatalf("ternary broadcast time = %v, want %v", m.Time(), want)
	}
}

func TestBroadcastTernaryRejectsNonBit(t *testing.T) {
	m := bspMachine(4, model.BSPg(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("non-bit value accepted")
		}
	}()
	BroadcastTernaryBSPg(m, 2)
}

func TestOneToAllBSP(t *testing.T) {
	for _, cost := range bspCosts {
		p := 16
		vals := make([]int64, p)
		for i := range vals {
			vals[i] = int64(i * 11)
		}
		m := bspMachine(p, cost)
		out := OneToAllBSP(m, 3, vals)
		for i, v := range out {
			if v != vals[i] {
				t.Fatalf("%v: proc %d got %d, want %d", cost.Kind, i, v, vals[i])
			}
		}
	}
}

func TestOneToAllSeparationTheta_g(t *testing.T) {
	// Table 1 row 1: BSP(g) pays g(p−1), BSP(m) pays p−1 (both plus L).
	p, g, l := 256, 16, 4
	vals := make([]int64, p)
	lm := bspMachine(p, model.BSPg(g, l))
	gm := bspMachine(p, model.BSPmLinear(p/g, l))
	OneToAllBSP(lm, 0, vals)
	OneToAllBSP(gm, 0, vals)
	if lm.Time() != float64(g*(p-1)) {
		t.Fatalf("BSP(g) one-to-all = %v, want %d", lm.Time(), g*(p-1))
	}
	if gm.Time() != float64(p-1) {
		t.Fatalf("BSP(m) one-to-all = %v, want %d", gm.Time(), p-1)
	}
}

func TestReduceAndSumAllBSP(t *testing.T) {
	for _, cost := range bspCosts {
		for _, p := range []int{1, 2, 5, 16, 33} {
			vals := make([]int64, p)
			var want int64
			for i := range vals {
				vals[i] = int64(i*i + 1)
				want += vals[i]
			}
			m := bspMachine(p, cost)
			if got := SumAllBSP(m, vals, Sum); got != want {
				t.Fatalf("%v p=%d: sum = %d, want %d", cost.Kind, p, got, want)
			}
		}
	}
}

func TestReduceBSPXor(t *testing.T) {
	p := 32
	vals := make([]int64, p)
	var want int64
	for i := range vals {
		vals[i] = int64(i % 2)
		want ^= vals[i]
	}
	m := bspMachine(p, model.BSPmLinear(8, 4))
	if got := ReduceBSP(m, vals, Xor); got != want {
		t.Fatalf("parity = %d, want %d", got, want)
	}
}

func TestPrefixSumBSP(t *testing.T) {
	for _, cost := range bspCosts {
		for _, p := range []int{1, 2, 7, 16, 33, 64} {
			vals := make([]int64, p)
			for i := range vals {
				vals[i] = int64(i + 1)
			}
			m := bspMachine(p, cost)
			pre, total := PrefixSumBSP(m, vals, Sum, 0)
			var acc int64
			for i := 0; i < p; i++ {
				if pre[i] != acc {
					t.Fatalf("%v p=%d: prefix[%d] = %d, want %d", cost.Kind, p, i, pre[i], acc)
				}
				acc += vals[i]
			}
			if total != acc {
				t.Fatalf("%v p=%d: total = %d, want %d", cost.Kind, p, total, acc)
			}
		}
	}
}

func TestPrefixSumBSPProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := int(seed%60) + 1
		m := bsp.New(bsp.Config{P: p, Cost: model.BSPmLinear(4, 2), Seed: seed})
		vals := make([]int64, p)
		for i := range vals {
			vals[i] = int64((seed >> (i % 32)) & 0xff)
		}
		pre, total := PrefixSumBSP(m, vals, Sum, 0)
		var acc int64
		for i := range vals {
			if pre[i] != acc {
				return false
			}
			acc += vals[i]
		}
		return total == acc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixNoOverload(t *testing.T) {
	var log []engine.StepStats
	m := bsp.New(bsp.Config{P: 200, Cost: model.BSPm(8, 4), Seed: 1, Observer: stepLog(&log)})
	vals := make([]int64, 200)
	for i := range vals {
		vals[i] = 1
	}
	PrefixSumBSP(m, vals, Sum, 0)
	noOverload(t, "prefix sum", log)
}

func TestBroadcastQSMAllModels(t *testing.T) {
	for _, cost := range qsmCosts {
		for _, p := range []int{1, 2, 3, 16, 33, 64} {
			for _, root := range []int{0, p - 1} {
				m := qsmMachine(p, cost)
				out := BroadcastQSM(m, root, 13)
				for i, v := range out {
					if v != 13 {
						t.Fatalf("%v p=%d root=%d: proc %d got %d", cost.Kind, p, root, i, v)
					}
				}
			}
		}
	}
}

func TestBroadcastQSMNoOverload(t *testing.T) {
	var log []engine.StepStats
	m := qsm.New(qsm.Config{P: 100, Mem: 200, Cost: model.QSMm(4), Seed: 2, Observer: stepLog(&log)})
	BroadcastQSM(m, 0, 5)
	noOverload(t, "QSM broadcast", log)
}

func TestBroadcastQSMSeparation(t *testing.T) {
	// Table 1 row 2: QSM(m) Θ(lg m + p/m) beats QSM(g) Θ(g·lg p/lg g).
	p, g := 1024, 32
	lm := qsmMachine(p, model.QSMg(g))
	gm := qsmMachine(p, qsmmLin(p/g))
	BroadcastQSM(lm, 0, 1)
	BroadcastQSM(gm, 0, 1)
	if gm.Time() >= lm.Time() {
		t.Fatalf("QSM(m) broadcast (%v) not faster than QSM(g) (%v)", gm.Time(), lm.Time())
	}
}

func TestOneToAllQSM(t *testing.T) {
	for _, cost := range qsmCosts {
		p := 16
		vals := make([]int64, p)
		for i := range vals {
			vals[i] = int64(100 - i)
		}
		m := qsmMachine(p, cost)
		out := OneToAllQSM(m, 2, vals)
		for i, v := range out {
			if v != vals[i] {
				t.Fatalf("%v: proc %d got %d, want %d", cost.Kind, i, v, vals[i])
			}
		}
	}
}

func TestSumAllQSM(t *testing.T) {
	for _, cost := range qsmCosts {
		for _, p := range []int{1, 2, 5, 16, 33} {
			vals := make([]int64, p)
			var want int64
			for i := range vals {
				vals[i] = int64(3*i + 2)
				want += vals[i]
			}
			m := qsmMachine(p, cost)
			if got := SumAllQSM(m, vals, Sum); got != want {
				t.Fatalf("%v p=%d: sum = %d, want %d", cost.Kind, p, got, want)
			}
		}
	}
}

func TestPrefixSumQSM(t *testing.T) {
	for _, cost := range qsmCosts {
		for _, p := range []int{1, 2, 7, 16, 33, 64} {
			vals := make([]int64, p)
			for i := range vals {
				vals[i] = int64(2*i + 1)
			}
			m := qsmMachine(p, cost)
			pre, total := PrefixSumQSM(m, vals, Sum, 0)
			var acc int64
			for i := 0; i < p; i++ {
				if pre[i] != acc {
					t.Fatalf("%v p=%d: prefix[%d] = %d, want %d", cost.Kind, p, i, pre[i], acc)
				}
				acc += vals[i]
			}
			if total != acc {
				t.Fatalf("%v p=%d: total = %d, want %d", cost.Kind, p, total, acc)
			}
		}
	}
}

func TestSummationSeparationQSM(t *testing.T) {
	// Table 1 row 3 shape: QSM(m) summation Θ(lg m + n/m) beats QSM(g).
	p, g := 1024, 64
	vals := make([]int64, p)
	for i := range vals {
		vals[i] = 1
	}
	lm := qsmMachine(p, model.QSMg(g))
	gm := qsmMachine(p, qsmmLin(p/g))
	ReduceQSM(lm, vals, Sum)
	ReduceQSM(gm, vals, Sum)
	if gm.Time() >= lm.Time() {
		t.Fatalf("QSM(m) summation (%v) not faster than QSM(g) (%v)", gm.Time(), lm.Time())
	}
}

func TestOps(t *testing.T) {
	if Sum(2, 3) != 5 || Xor(5, 3) != 6 || Max(2, 7) != 7 || Max(9, 1) != 9 {
		t.Fatal("ops wrong")
	}
}

func TestTreeDegree(t *testing.T) {
	if treeDegree(16, 4) != 4 || treeDegree(4, 4) != 2 || treeDegree(1, 8) != 2 {
		t.Fatal("treeDegree wrong")
	}
}

func TestGatherQSM(t *testing.T) {
	for _, cost := range qsmCosts {
		p := 24
		vals := make([]int64, p)
		for i := range vals {
			vals[i] = int64(i * 3)
		}
		for _, root := range []int{0, 5, p - 1} {
			m := qsmMachine(p, cost)
			out := GatherQSM(m, root, vals)
			for i, v := range out {
				if v != vals[i] {
					t.Fatalf("%v root=%d: out[%d] = %d, want %d", cost.Kind, root, i, v, vals[i])
				}
			}
		}
	}
}

func TestScatterQSM(t *testing.T) {
	p := 12
	vals := make([]int64, p)
	for i := range vals {
		vals[i] = int64(50 - i)
	}
	m := qsmMachine(p, qsmmLin(4))
	out := ScatterQSM(m, 3, vals)
	for i, v := range out {
		if v != vals[i] {
			t.Fatalf("scatter out[%d] = %d", i, v)
		}
	}
}

func TestBroadcastVecQSM(t *testing.T) {
	for _, cost := range qsmCosts {
		for _, p := range []int{1, 2, 8, 17} {
			for _, k := range []int{1, 4, 9} {
				vec := make([]int64, k)
				for j := range vec {
					vec[j] = int64(j*j + 1)
				}
				m := qsm.New(qsm.Config{P: p, Mem: 2*p + k, Cost: cost, Seed: 7})
				out := BroadcastVecQSM(m, p/3, vec)
				if len(out) != k {
					t.Fatalf("%v p=%d k=%d: got %d items", cost.Kind, p, k, len(out))
				}
				for j, v := range out {
					if v != vec[j] {
						t.Fatalf("%v p=%d: out[%d] = %d, want %d", cost.Kind, p, j, v, vec[j])
					}
				}
			}
		}
	}
}

func TestBroadcastVecQSMEmpty(t *testing.T) {
	m := qsmMachine(4, qsmmLin(2))
	if out := BroadcastVecQSM(m, 0, nil); out != nil {
		t.Fatal("empty vector returned items")
	}
}

func TestGatherQSMSeparation(t *testing.T) {
	p, g := 256, 16
	vals := make([]int64, p)
	lm := qsmMachine(p, model.QSMg(g))
	GatherQSM(lm, 0, vals)
	gm := qsmMachine(p, qsmmLin(p/g))
	GatherQSM(gm, 0, vals)
	if gm.Time() >= lm.Time() {
		t.Fatalf("QSM(m) gather (%v) not faster than QSM(g) (%v)", gm.Time(), lm.Time())
	}
}

func TestGatherBSP(t *testing.T) {
	for _, cost := range bspCosts {
		p := 32
		vals := make([]int64, p)
		for i := range vals {
			vals[i] = int64(i * 5)
		}
		for _, root := range []int{0, 7, p - 1} {
			m := bspMachine(p, cost)
			out := GatherBSP(m, root, vals)
			for i, v := range out {
				if v != vals[i] {
					t.Fatalf("%v root=%d: out[%d] = %d, want %d", cost.Kind, root, i, v, vals[i])
				}
			}
		}
	}
}

func TestGatherBSPSeparation(t *testing.T) {
	p, g, l := 256, 16, 4
	vals := make([]int64, p)
	lm := bspMachine(p, model.BSPg(g, l))
	GatherBSP(lm, 0, vals)
	gm := bspMachine(p, model.BSPmLinear(p/g, l))
	GatherBSP(gm, 0, vals)
	if gm.Time() >= lm.Time() {
		t.Fatalf("BSP(m) gather (%v) not faster than BSP(g) (%v)", gm.Time(), lm.Time())
	}
}

func TestScatterBSP(t *testing.T) {
	p := 16
	vals := make([]int64, p)
	for i := range vals {
		vals[i] = int64(i + 100)
	}
	m := bspMachine(p, model.BSPmLinear(4, 2))
	out := ScatterBSP(m, 2, vals)
	for i, v := range out {
		if v != vals[i] {
			t.Fatalf("scatter out[%d] = %d", i, v)
		}
	}
}

func TestAllGatherBSP(t *testing.T) {
	for _, cost := range bspCosts {
		p := 16
		vals := make([]int64, p)
		for i := range vals {
			vals[i] = int64(i*i + 1)
		}
		m := bspMachine(p, cost)
		out := AllGatherBSP(m, vals)
		if len(out) != p {
			t.Fatalf("%v: allgather returned %d items", cost.Kind, len(out))
		}
		for i, v := range out {
			if v != vals[i] {
				t.Fatalf("%v: out[%d] = %d, want %d", cost.Kind, i, v, vals[i])
			}
		}
	}
}

func TestBroadcastVecBSP(t *testing.T) {
	for _, cost := range bspCosts {
		for _, p := range []int{1, 2, 9, 32} {
			for _, k := range []int{1, 3, 17} {
				vec := make([]int64, k)
				for j := range vec {
					vec[j] = int64(j * 7)
				}
				m := bspMachine(p, cost)
				out := BroadcastVecBSP(m, p/2, vec)
				if len(out) != k {
					t.Fatalf("%v p=%d k=%d: got %d items", cost.Kind, p, k, len(out))
				}
				for j, v := range out {
					if v != vec[j] {
						t.Fatalf("%v p=%d: out[%d] = %d, want %d", cost.Kind, p, j, v, vec[j])
					}
				}
			}
		}
	}
}

func TestBroadcastVecPipelines(t *testing.T) {
	p, k := 64, 32
	cost := model.BSPmLinear(16, 4)
	vec := make([]int64, k)
	pipe := bspMachine(p, cost)
	BroadcastVecBSP(pipe, 0, vec)
	seq := bspMachine(p, cost)
	for j := 0; j < k; j++ {
		BroadcastBSP(seq, 0, int64(j))
	}
	if pipe.Time() >= seq.Time() {
		t.Fatalf("pipelined (%v) not faster than sequential (%v)", pipe.Time(), seq.Time())
	}
}

func TestBroadcastVecNoOverload(t *testing.T) {
	p, k := 128, 16
	var log []engine.StepStats
	m := bsp.New(bsp.Config{P: p, Cost: model.BSPm(8, 4), Seed: 1, Observer: stepLog(&log)})
	BroadcastVecBSP(m, 0, make([]int64, k))
	noOverload(t, "vector broadcast", log)
}

func TestBroadcastVecEmpty(t *testing.T) {
	m := bspMachine(4, model.BSPg(1, 1))
	if out := BroadcastVecBSP(m, 0, nil); out != nil {
		t.Fatal("empty vector broadcast returned items")
	}
}

// The inbox a broadcast starts with belongs to the caller's previous
// superstep: leftover messages shaped like pipeline items must not be taken
// for item 0.
func TestBroadcastVecIgnoresLeftoverInbox(t *testing.T) {
	p := 9
	m := bspMachine(p, model.BSPmLinear(4, 4))
	m.Superstep(func(c *bsp.Ctx) {
		if c.ID() != 0 {
			return
		}
		for dst := 1; dst < p; dst++ {
			c.Send(dst, 0, 99)
		}
	})
	vec := []int64{5, 6, 7}
	if out := BroadcastVecBSP(m, 0, vec); !reflect.DeepEqual(out, vec) {
		t.Fatalf("got %v, want %v", out, vec)
	}
}

// The pipeline keeps O(1) state per processor: a p·k copy of the vector
// (8 MB here) must never be materialized.
func TestBroadcastVecMemoryLinear(t *testing.T) {
	p, k := 1024, 1023
	m := bsp.New(bsp.Config{P: p, Cost: model.BSPm(32, 4), Seed: 1})
	vec := make([]int64, k)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	BroadcastVecBSP(m, 1, vec)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("p=%d k=%d broadcast allocated %d bytes, want < 1 MB", p, k, n)
	}
}

func TestReduceBSPDegree(t *testing.T) {
	p := 64
	vals := make([]int64, p)
	var want int64
	for i := range vals {
		vals[i] = int64(i)
		want += vals[i]
	}
	for _, d := range []int{2, 3, 4, 8} {
		m := bspMachine(p, model.BSPmLinear(8, 8))
		if got := ReduceBSPDegree(m, vals, Sum, d); got != want {
			t.Fatalf("d=%d: sum = %d, want %d", d, got, want)
		}
	}
	// Larger fan-in (up to L) is never slower at these parameters.
	m2 := bspMachine(p, model.BSPmLinear(8, 8))
	ReduceBSPDegree(m2, vals, Sum, 2)
	m8 := bspMachine(p, model.BSPmLinear(8, 8))
	ReduceBSPDegree(m8, vals, Sum, 8)
	if m8.Time() > m2.Time() {
		t.Fatalf("L-ary (%v) slower than binary (%v)", m8.Time(), m2.Time())
	}
}

func TestReduceBSPDegreeValidation(t *testing.T) {
	m := bspMachine(4, model.BSPmLinear(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("fan-in 1 accepted")
		}
	}()
	ReduceBSPDegree(m, make([]int64, 4), Sum, 1)
}

func TestQSMScratchPanics(t *testing.T) {
	m := qsm.New(qsm.Config{P: 8, Mem: 4, Cost: model.QSMg(1), Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("undersized QSM memory accepted")
		}
	}()
	BroadcastQSM(m, 0, 1)
}
