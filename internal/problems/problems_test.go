package problems

import (
	"slices"
	"testing"
	"testing/quick"

	"parbw/internal/bsp"
	"parbw/internal/engine"
	"parbw/internal/model"
	"parbw/internal/qsm"
	"parbw/internal/xrand"
)

func bspM(p, mm, l int, seed uint64) *bsp.Machine {
	return bsp.New(bsp.Config{P: p, Cost: model.BSPm(mm, l), Seed: seed})
}

func bspG(p, g, l int, seed uint64) *bsp.Machine {
	return bsp.New(bsp.Config{P: p, Cost: model.BSPg(g, l), Seed: seed})
}

func qsmM(p, mm int, seed uint64) *qsm.Machine {
	return qsm.New(qsm.Config{P: p, Mem: 3 * p, Cost: model.QSMm(mm), Seed: seed})
}

func qsmG(p, g int, seed uint64) *qsm.Machine {
	return qsm.New(qsm.Config{P: p, Mem: 3 * p, Cost: model.QSMg(g), Seed: seed})
}

func TestSummationBSP(t *testing.T) {
	for _, mk := range []func() *bsp.Machine{
		func() *bsp.Machine { return bspM(16, 4, 2, 1) },
		func() *bsp.Machine { return bspG(16, 4, 8, 1) },
	} {
		input := make([]int64, 64)
		var want int64
		for i := range input {
			input[i] = int64(i * 3)
			want += input[i]
		}
		if got := SummationBSP(mk(), input); got != want {
			t.Fatalf("sum = %d, want %d", got, want)
		}
	}
}

func TestParityBSPandQSM(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 32 + rng.Intn(64)
		input := make([]int64, n)
		var want int64
		for i := range input {
			input[i] = int64(rng.Intn(2))
			want ^= input[i]
		}
		if ParityBSP(bspM(16, 4, 2, seed), input) != want {
			return false
		}
		if ParityQSM(qsmM(16, 4, seed), input) != want {
			return false
		}
		if ParityQSM(qsmG(16, 4, seed), input) != want {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSummationQSM(t *testing.T) {
	input := make([]int64, 48)
	var want int64
	for i := range input {
		input[i] = int64(i)
		want += input[i]
	}
	if got := SummationQSM(qsmM(16, 8, 2), input); got != want {
		t.Fatalf("QSM(m) sum = %d, want %d", got, want)
	}
	if got := SummationQSM(qsmG(16, 2, 2), input); got != want {
		t.Fatalf("QSM(g) sum = %d, want %d", got, want)
	}
}

func TestSummationSeparation(t *testing.T) {
	// Table 1 row 3 shape: globally-limited summation beats locally-limited
	// with matched aggregate bandwidth.
	p, g, l := 512, 32, 32
	input := make([]int64, p)
	for i := range input {
		input[i] = 1
	}
	lt := bspG(p, g, l, 3)
	gt := bsp.New(bsp.Config{P: p, Cost: model.BSPmLinear(p/g, l), Seed: 3})
	SummationBSP(lt, input)
	SummationBSP(gt, input)
	if gt.Time() >= lt.Time() {
		t.Fatalf("BSP(m) summation (%v) not faster than BSP(g) (%v)", gt.Time(), lt.Time())
	}
}

// --- List ranking ---

func TestRandomListWellFormed(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(100)
		l := RandomList(rng, n)
		seen := make([]bool, n)
		tails := 0
		for _, s := range l.Succ {
			if s == -1 {
				tails++
				continue
			}
			if s < 0 || s >= n || seen[s] {
				return false
			}
			seen[s] = true
		}
		return tails == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialRanks(t *testing.T) {
	l := List{Succ: []int{2, -1, 1}} // 0 -> 2 -> 1
	r := l.SequentialRanks()
	if r[0] != 2 || r[2] != 1 || r[1] != 0 {
		t.Fatalf("ranks = %v", r)
	}
}

func TestListRankJumpBSP(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 33, 64} {
		rng := xrand.New(uint64(n))
		list := RandomList(rng, n)
		want := list.SequentialRanks()
		m := bspM(n, 4, 2, uint64(n))
		got := ListRankJumpBSP(m, list)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: rank[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestListRankContractBSP(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 33, 64, 128} {
		rng := xrand.New(uint64(n) + 7)
		list := RandomList(rng, n)
		want := list.SequentialRanks()
		m := bspM(n, 8, 2, uint64(n))
		got := ListRankContractBSP(m, list)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: rank[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestListRankContractBSPProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(96)
		list := RandomList(rng, n)
		want := list.SequentialRanks()
		got := ListRankContractBSP(bspM(n, 4, 2, seed), list)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestListRankContractQSM(t *testing.T) {
	for _, mk := range []func(n int) *qsm.Machine{
		func(n int) *qsm.Machine { return qsmM(n, 8, 5) },
		func(n int) *qsm.Machine { return qsmG(n, 4, 5) },
	} {
		for _, n := range []int{1, 2, 3, 16, 33, 64} {
			rng := xrand.New(uint64(n) + 13)
			list := RandomList(rng, n)
			want := list.SequentialRanks()
			got := ListRankContractQSM(mk(n), list)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d: rank[%d] = %d, want %d", n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestNearlyOrderedList(t *testing.T) {
	rng := xrand.New(4)
	list := NearlyOrderedList(rng, 50, 3)
	want := list.SequentialRanks()
	got := ListRankContractBSP(bspM(50, 8, 2, 4), list)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// Contraction must do asymptotically less traffic than jumping: compare
// simulated times on BSP(m) at matched parameters.
func TestContractionBeatsJumping(t *testing.T) {
	n := 512
	rng := xrand.New(9)
	list := RandomList(rng, n)
	mj := bspM(n, 8, 2, 9)
	ListRankJumpBSP(mj, list)
	mc := bspM(n, 8, 2, 9)
	ListRankContractBSP(mc, list)
	if mc.Time() >= mj.Time() {
		t.Fatalf("contraction (%v) not faster than jumping (%v)", mc.Time(), mj.Time())
	}
}

// --- Sorting ---

func TestColumnsortBSPSortsRandom(t *testing.T) {
	for _, cfg := range []struct{ n, p, q int }{
		{16, 16, 4}, {64, 16, 8}, {64, 64, 16}, {256, 64, 16},
		{256, 64, 64}, {1024, 32, 32}, {64, 64, 1}, {1, 1, 1}, {2, 2, 2},
	} {
		rng := xrand.New(uint64(cfg.n * cfg.q))
		keys := make([]int64, cfg.n)
		for i := range keys {
			keys[i] = int64(rng.Intn(1000)) - 500
		}
		m := bspM(cfg.p, 4, 2, 77)
		got := ColumnsortBSP(m, keys, cfg.q)
		if !IsSorted(got) {
			t.Fatalf("n=%d p=%d q=%d: output not sorted", cfg.n, cfg.p, cfg.q)
		}
		// Same multiset.
		want := append([]int64(nil), keys...)
		slices.Sort(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d q=%d: got[%d]=%d want %d", cfg.n, cfg.q, i, got[i], want[i])
			}
		}
	}
}

func TestColumnsortBSPProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 << (4 + rng.Intn(6)) // 16..512
		p := 1 << (2 + rng.Intn(4)) // 4..32
		q := p
		if q > n {
			q = n
		}
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Uint64() % 997)
		}
		got := ColumnsortBSP(bspM(p, 4, 2, seed), keys, q)
		if !IsSorted(got) {
			return false
		}
		want := append([]int64(nil), keys...)
		slices.Sort(want)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestColumnsortWorksOnBSPg(t *testing.T) {
	rng := xrand.New(21)
	keys := make([]int64, 256)
	for i := range keys {
		keys[i] = int64(rng.Intn(100))
	}
	got := ColumnsortBSP(bspG(64, 8, 16, 21), keys, 64)
	if !IsSorted(got) {
		t.Fatal("BSP(g) columnsort output not sorted")
	}
}

func TestColumnsortDuplicatesAndSortedInputs(t *testing.T) {
	n, p := 128, 16
	allSame := make([]int64, n)
	got := ColumnsortBSP(bspM(p, 4, 2, 1), allSame, 16)
	for _, v := range got {
		if v != 0 {
			t.Fatal("constant input corrupted")
		}
	}
	desc := make([]int64, n)
	for i := range desc {
		desc[i] = int64(n - i)
	}
	got = ColumnsortBSP(bspM(p, 4, 2, 1), desc, 16)
	if !IsSorted(got) {
		t.Fatal("descending input not sorted")
	}
}

func TestColumnsortRejectsBadShapes(t *testing.T) {
	for _, fn := range []func(){
		func() { ColumnsortBSP(bspM(8, 2, 1, 1), make([]int64, 24), 4) },  // n not pow2
		func() { ColumnsortBSP(bspM(8, 2, 1, 1), make([]int64, 4), 8) },   // q > n
		func() { ColumnsortBSP(bspM(8, 2, 1, 1), make([]int64, 32), 16) }, // q > p
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad shape accepted")
				}
			}()
			fn()
		}()
	}
}

func TestPickColumns(t *testing.T) {
	// N=64, q=16: s=4 needs r=16 >= 2·9=18: no; s=2 needs 32 >= 2: yes.
	if got := pickColumns(64, 16); got != 2 {
		t.Fatalf("pickColumns(64,16) = %d, want 2", got)
	}
	// N=4096, q=16: s=8 needs 512 >= 98: yes; s=16 needs 256 >= 450: no.
	if got := pickColumns(4096, 16); got != 8 {
		t.Fatalf("pickColumns(4096,16) = %d, want 8", got)
	}
	if got := pickColumns(2, 2); got != 1 {
		t.Fatalf("pickColumns(2,2) = %d, want 1", got)
	}
}

func TestSortingSeparation(t *testing.T) {
	// Table 1 row 5 shape: BSP(m) sorting (n/m-ish) beats BSP(g) with the
	// same aggregate bandwidth for n = p.
	n := 1024
	p, g, l := n, 32, 16
	rng := xrand.New(31)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Uint64() % 100000)
	}
	mm := p / g
	q := mm * bitsLen(n)
	// Round q down to a power of two within [1, min(n, p)].
	qq := 1
	for qq*2 <= q && qq*2 <= n {
		qq *= 2
	}
	lt := bspG(p, g, l, 31)
	ColumnsortBSP(lt, keys, qq)
	gt := bsp.New(bsp.Config{P: p, Cost: model.BSPmLinear(mm, l), Seed: 31})
	ColumnsortBSP(gt, keys, qq)
	if gt.Time() >= lt.Time() {
		t.Fatalf("BSP(m) sort (%v) not faster than BSP(g) (%v)", gt.Time(), lt.Time())
	}
}

func TestColumnsortQSMSortsRandom(t *testing.T) {
	for _, cfg := range []struct{ n, p, q int }{
		{16, 16, 4}, {64, 16, 8}, {256, 64, 16}, {256, 64, 64}, {2, 2, 2},
	} {
		rng := xrand.New(uint64(cfg.n*cfg.q) + 5)
		keys := make([]int64, cfg.n)
		for i := range keys {
			keys[i] = int64(rng.Intn(1000)) - 500
		}
		for _, mk := range []func() *qsm.Machine{
			func() *qsm.Machine {
				return qsm.New(qsm.Config{P: cfg.p, Mem: cfg.n + 1, Cost: model.QSMm(4), Seed: 3})
			},
			func() *qsm.Machine {
				return qsm.New(qsm.Config{P: cfg.p, Mem: cfg.n + 1, Cost: model.QSMg(4), Seed: 3})
			},
		} {
			got := ColumnsortQSM(mk(), keys, cfg.q)
			if !IsSorted(got) {
				t.Fatalf("n=%d p=%d q=%d: QSM output not sorted", cfg.n, cfg.p, cfg.q)
			}
			want := append([]int64(nil), keys...)
			slices.Sort(want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d q=%d: got[%d]=%d want %d", cfg.n, cfg.q, i, got[i], want[i])
				}
			}
		}
	}
}

func TestColumnsortQSMProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 << (4 + rng.Intn(5))
		p := 1 << (2 + rng.Intn(4))
		q := p
		if q > n {
			q = n
		}
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Uint64() % 513)
		}
		m := qsm.New(qsm.Config{P: p, Mem: n, Cost: model.QSMm(8), Seed: seed})
		got := ColumnsortQSM(m, keys, q)
		if !IsSorted(got) {
			return false
		}
		want := append([]int64(nil), keys...)
		slices.Sort(want)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The meaningful Θ(n/m) check is scaling: with the same recursion depth,
// doubling m should roughly halve the sort's simulated time.
func TestColumnsortQSMScalesWithM(t *testing.T) {
	n, p := 512, 64
	rng := xrand.New(8)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(100))
	}
	run := func(mm int) float64 {
		var phases []engine.StepStats
		m := qsm.New(qsm.Config{P: p, Mem: n, Cost: model.QSMm(mm), Seed: 8,
			Observer: engine.ObserverFunc(func(st engine.StepStats) {
				st.Hist = nil
				phases = append(phases, st)
			})})
		// q = 32 keeps the per-processor request count n/q = 16 below n/m
		// for both m values, so the aggregate term is what scales.
		ColumnsortQSM(m, keys, 32)
		for i, st := range phases {
			if st.MaxSlot > 4*mm {
				t.Fatalf("m=%d phase %d badly overloaded: %+v", mm, i, st)
			}
		}
		return m.Time()
	}
	t8, t32 := run(8), run(32)
	ratio := t8 / t32
	if ratio < 2 || ratio > 8 {
		t.Fatalf("time(m=8)/time(m=32) = %v, want ~4 (Θ(n/m) scaling)", ratio)
	}
}

func TestSortingSeparationQSM(t *testing.T) {
	n := 512
	p, g := n, 32
	rng := xrand.New(41)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Uint64() % 9999)
	}
	mm := p / g
	lt := qsm.New(qsm.Config{P: p, Mem: n, Cost: model.QSMg(g), Seed: 41})
	ColumnsortQSM(lt, keys, mm*2)
	gt := qsm.New(qsm.Config{P: p, Mem: n, Cost: model.QSMm(mm), Seed: 41})
	ColumnsortQSM(gt, keys, mm*2)
	if gt.Time() >= lt.Time() {
		t.Fatalf("QSM(m) sort (%v) not faster than QSM(g) (%v)", gt.Time(), lt.Time())
	}
}

func TestSampleSortBSPSorts(t *testing.T) {
	for _, cfg := range []struct{ n, p int }{
		{100, 8}, {1000, 16}, {4096, 32}, {17, 4}, {1, 1}, {8, 8},
	} {
		rng := xrand.New(uint64(cfg.n))
		keys := make([]int64, cfg.n)
		for i := range keys {
			keys[i] = int64(rng.Intn(10000)) - 5000
		}
		m := bspM(cfg.p, 8, 2, 9)
		got := SampleSortBSP(m, keys, 8)
		if len(got) != cfg.n {
			t.Fatalf("n=%d p=%d: returned %d keys", cfg.n, cfg.p, len(got))
		}
		if !IsSorted(got) {
			t.Fatalf("n=%d p=%d: not sorted", cfg.n, cfg.p)
		}
		want := append([]int64(nil), keys...)
		slices.Sort(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: got[%d]=%d want %d", cfg.n, i, got[i], want[i])
			}
		}
	}
}

func TestSampleSortBSPProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(2000)
		p := 1 << (1 + rng.Intn(5))
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Uint64() % 4096)
		}
		m := bspM(p, 8, 2, seed)
		got := SampleSortBSP(m, keys, 8)
		if !IsSorted(got) || len(got) != n {
			return false
		}
		want := append([]int64(nil), keys...)
		slices.Sort(want)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// In the n ≫ p regime sample sort should beat columnsort (splitter
// broadcast amortized, single routing round vs 4·depth permutes).
func TestSampleSortBeatsColumnsortLargeN(t *testing.T) {
	n, p, mm := 8192, 32, 8
	rng := xrand.New(12)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Uint64() % 100000)
	}
	ms := bspM(p, mm, 2, 6)
	SampleSortBSP(ms, keys, 8)
	mc := bspM(p, mm, 2, 6)
	ColumnsortBSP(mc, keys, p)
	if ms.Time() >= mc.Time() {
		t.Fatalf("sample sort (%v) not faster than columnsort (%v) at n=%d", ms.Time(), mc.Time(), n)
	}
}

func TestMatrixTransposeBSP(t *testing.T) {
	for _, p := range []int{1, 2, 8, 16} {
		rows := make([][]int64, p)
		for i := range rows {
			rows[i] = make([]int64, p)
			for j := range rows[i] {
				rows[i][j] = int64(i*100 + j)
			}
		}
		m := bspM(p, 4, 2, 3)
		got := MatrixTransposeBSP(m, rows)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if got[i][j] != rows[j][i] {
					t.Fatalf("p=%d: got[%d][%d] = %d, want %d", p, i, j, got[i][j], rows[j][i])
				}
			}
		}
	}
}

func TestMatrixTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		p := 4 << (seed % 3)
		rng := xrand.New(seed)
		rows := make([][]int64, p)
		for i := range rows {
			rows[i] = make([]int64, p)
			for j := range rows[i] {
				rows[i][j] = int64(rng.Intn(1000))
			}
		}
		m := bspM(p, 8, 2, seed)
		tr := MatrixTransposeBSP(m, rows)
		back := MatrixTransposeBSP(m, tr)
		for i := range rows {
			for j := range rows[i] {
				if back[i][j] != rows[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixTransposeBalanced(t *testing.T) {
	// Balanced traffic: BSP(g) and BSP(m) costs agree within the (1+ε)
	// scheduling slack at matched aggregate bandwidth.
	p, g, l := 32, 4, 2
	rows := make([][]int64, p)
	for i := range rows {
		rows[i] = make([]int64, p)
	}
	lm := bspG(p, g, l, 5)
	MatrixTransposeBSP(lm, rows)
	gm := bspM(p, p/g, l, 5)
	MatrixTransposeBSP(gm, rows)
	ratio := gm.Time() / lm.Time()
	if ratio < 0.8 || ratio > 1.6 {
		t.Fatalf("balanced transpose costs diverge: BSP(m)/BSP(g) = %v", ratio)
	}
}

func TestMatrixTransposeValidation(t *testing.T) {
	m := bspM(4, 2, 1, 1)
	for _, rows := range [][][]int64{
		make([][]int64, 3),   // wrong row count
		{{1}, {1}, {1}, {1}}, // wrong row length
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad matrix accepted")
				}
			}()
			MatrixTransposeBSP(m, rows)
		}()
	}
}
