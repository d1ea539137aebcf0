package stats

import (
	"math"
	"testing"
	"testing/quick"

	"parbw/internal/xrand"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	// Sample variance with n-1 denominator: 32/7.
	if math.Abs(s.Var()-32.0/7) > 1e-12 {
		t.Fatalf("Var = %v, want %v", s.Var(), 32.0/7)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.N() != 0 {
		t.Fatal("empty Summary not zero")
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		var s Summary
		for i := range xs {
			xs[i] = rng.Float64()*100 - 50
			s.Add(xs[i])
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(n-1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Var()-naiveVar) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v, want 1", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("q1 = %v, want 5", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v, want 3", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Fatalf("q.25 = %v, want 2", q)
	}
	// Must not modify input.
	if xs[0] != 5 {
		t.Fatal("Quantile modified its input")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if q := Quantile(xs, 0.5); q != 5 {
		t.Fatalf("interpolated median = %v, want 5", q)
	}
}

func TestQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(nil) did not panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestMeanMaxSum(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(1.0, 4)
	for _, x := range []float64{0.5, 1.5, 1.9, 3.2, 100, -1} {
		h.Add(x)
	}
	if h.N() != 6 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Bucket(0) != 2 { // 0.5 and the clamped -1
		t.Fatalf("bucket0 = %d, want 2", h.Bucket(0))
	}
	if h.Bucket(1) != 2 {
		t.Fatalf("bucket1 = %d, want 2", h.Bucket(1))
	}
	if h.Bucket(3) != 1 {
		t.Fatalf("bucket3 = %d, want 1", h.Bucket(3))
	}
	if h.Overflow() != 1 {
		t.Fatalf("overflow = %d, want 1", h.Overflow())
	}
}

func TestFitRatio(t *testing.T) {
	meas := []float64{10, 20, 40}
	pred := []float64{5, 10, 20}
	mean, max := FitRatio(meas, pred)
	if mean != 2 || max != 2 {
		t.Fatalf("FitRatio = %v,%v, want 2,2", mean, max)
	}
}

func TestFitRatioSkipsZeroPrediction(t *testing.T) {
	mean, max := FitRatio([]float64{10, 7}, []float64{0, 7})
	if mean != 1 || max != 1 {
		t.Fatalf("FitRatio with zero prediction = %v,%v, want 1,1", mean, max)
	}
}

func TestFitRatioMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	FitRatio([]float64{1}, []float64{1, 2})
}
