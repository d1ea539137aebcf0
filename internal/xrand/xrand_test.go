package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sources with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split(0)
	c2 := root.Split(1)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("adjacent split ids produced identical first draws")
	}
	// Split must not advance the parent.
	before := *root
	_ = root.Split(99)
	if *root != before {
		t.Fatal("Split advanced the parent state")
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9).Split(5)
	b := New(9).Split(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("equal splits diverged at draw %d", i)
		}
	}
}

func TestDeriveDeterministic(t *testing.T) {
	a := Derive(99, "workgen/dag/edges")
	b := Derive(99, "workgen/dag/edges")
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("equal (seed,label) derivations diverged at draw %d", i)
		}
	}
}

func TestDeriveLabelIndependence(t *testing.T) {
	// Distinct labels under one seed, and one label under distinct seeds,
	// must yield unrelated streams: no identical draws in a short prefix.
	pairs := [][2]*Source{
		{Derive(7, "shape"), Derive(7, "slots")},
		{Derive(7, "shape"), Derive(8, "shape")},
		{Derive(7, "a"), Derive(7, "ab")}, // prefix labels must not collide
		{Derive(7, "shape"), New(7)},      // derived vs raw seed
	}
	for pi, p := range pairs {
		same := 0
		for i := 0; i < 100; i++ {
			if p[0].Uint64() == p[1].Uint64() {
				same++
			}
		}
		if same > 0 {
			t.Fatalf("pair %d: %d identical draws between supposedly independent streams", pi, same)
		}
	}
}

func TestDeriveNotOffsetCorrelated(t *testing.T) {
	// The ad-hoc New(seed+k) idiom produces streams that are shifted copies
	// of each other (stream k's second draw equals stream k+1's first).
	// Derive must not have that property for "adjacent" labels.
	a := Derive(3, "m=1")
	b := Derive(3, "m=2")
	af := a.Uint64()
	as := a.Uint64()
	bf := b.Uint64()
	if as == bf || af == bf {
		t.Fatal("adjacent labels produced shifted/identical streams")
	}
}

func TestDeriveByteStability(t *testing.T) {
	// Golden values pin the exact (seed,label) -> stream mapping. They must
	// never change: corpus seeds, golden experiment outputs, and checked-in
	// counterexamples all depend on this mapping being stable across
	// platforms and releases. The mapping is pure SHA-256 over a fixed
	// little-endian encoding, so these values are host-independent.
	cases := []struct {
		seed   uint64
		label  string
		first  uint64
		second uint64
	}{
		{0, "", 0x175a373c860e188b, 0x5c4236fa0b679db0},
		{1, "workgen/hrel/slots", 0x8c0e678ab74a586e, 0x8fa3c03c329c2092},
		{1, "workgen/hrel/shape", 0x01bcbcc2544dfbfc, 0x8cbbc66513c97ee6},
		{42, "contention/m=8", 0x91a937a627af3083, 0x550f302b92784be0},
		{18446744073709551615, "x", 0xa1ddc06c60d82989, 0x831cf6d31ea0cf8a},
	}
	for _, c := range cases {
		s := Derive(c.seed, c.label)
		if got := s.Uint64(); got != c.first {
			t.Errorf("Derive(%d, %q) first draw = %#x, want %#x", c.seed, c.label, got, c.first)
		}
		if got := s.Uint64(); got != c.second {
			t.Errorf("Derive(%d, %q) second draw = %#x, want %#x", c.seed, c.label, got, c.second)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(4)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(5)
	const buckets, n = 8, 80000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[s.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from expected %v", b, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		n := 1 + s.Intn(200)
		p := s.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := New(11)
	n := 64
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	s.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, n)
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("duplicate value %d after Shuffle", v)
		}
		seen[v] = true
	}
}

func TestExpMean(t *testing.T) {
	s := New(12)
	const rate, n = 2.0, 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(13)
	z := NewZipf(s, 100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		r := z.Draw()
		if r < 0 || r >= 100 {
			t.Fatalf("Zipf draw %d out of range", r)
		}
		counts[r]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	if counts[0] == 0 || counts[99] < 0 {
		t.Fatal("Zipf degenerate counts")
	}
}

func TestZipfAlphaZeroUniformish(t *testing.T) {
	s := New(14)
	z := NewZipf(s, 10, 0)
	counts := make([]int, 10)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	for r, c := range counts {
		if math.Abs(float64(c)-n/10) > 5*math.Sqrt(n/10) {
			t.Fatalf("alpha=0 rank %d count %d not uniform", r, c)
		}
	}
}

func TestBoolBalance(t *testing.T) {
	s := New(15)
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)-n/2) > 5*math.Sqrt(n/4) {
		t.Fatalf("Bool trues = %d of %d", trues, n)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	_ = s.Uint64() // must not panic
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestNewZipfPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(New(1), 0, 1) },
		func() { NewZipf(New(1), 5, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad Zipf params accepted")
				}
			}()
			fn()
		}()
	}
}
