// Package stats provides small statistical helpers used by the experiment
// harness: running summaries, quantiles, histograms and linear fits against
// predicted growth curves.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates count, mean, min, max and variance of a stream of
// float64 observations using Welford's algorithm. The zero value is ready
// to use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean, or 0 if empty.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 if empty.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 if empty.
func (s *Summary) Max() float64 { return s.max }

// Var returns the sample variance (n-1 denominator), or 0 for n < 2.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// String renders the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g max=%.4g std=%.4g",
		s.n, s.Mean(), s.Min(), s.Max(), s.Std())
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice and
// does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Histogram is a fixed-width bucket histogram over [0, width*buckets), with
// an overflow bucket for larger values.
type Histogram struct {
	width   float64
	buckets []int
	over    int
	n       int
}

// NewHistogram builds a histogram with the given bucket width and count.
func NewHistogram(width float64, buckets int) *Histogram {
	if width <= 0 || buckets <= 0 {
		panic("stats: NewHistogram with non-positive width or buckets")
	}
	return &Histogram{width: width, buckets: make([]int, buckets)}
}

// Add records an observation x >= 0. Negative values go to bucket 0.
func (h *Histogram) Add(x float64) {
	h.n++
	if x < 0 {
		h.buckets[0]++
		return
	}
	i := int(x / h.width)
	if i >= len(h.buckets) {
		h.over++
		return
	}
	h.buckets[i]++
}

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int { return h.buckets[i] }

// Overflow returns the count of observations beyond the last bucket.
func (h *Histogram) Overflow() int { return h.over }

// N returns the total number of observations.
func (h *Histogram) N() int { return h.n }

// FitRatio reports how well measured tracks predicted across a sweep:
// it returns the mean and max of measured[i]/predicted[i]. A growth-shape
// reproduction is "good" when the ratio is roughly flat, i.e. max/mean is
// close to 1; the harness reports both so EXPERIMENTS.md can quote them.
func FitRatio(measured, predicted []float64) (mean, max float64) {
	if len(measured) != len(predicted) {
		panic("stats: FitRatio length mismatch")
	}
	var s Summary
	for i := range measured {
		if predicted[i] == 0 {
			continue
		}
		s.Add(measured[i] / predicted[i])
	}
	return s.Mean(), s.Max()
}
