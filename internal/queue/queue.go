// Package queue provides the queueing-theory reference used by the paper's
// dynamic-routing analysis (Theorem 6.7 and Claim 6.8): M/G/1 stability and
// mean-queue formulas (Pollaczek–Khinchine, per Kleinrock), the dominating
// service-time distributions S'₀ and S”₀ from Claim 6.8, and a simple FIFO
// server simulator for validating the formulas empirically.
package queue

import (
	"math"
	"sync"

	"parbw/internal/xrand"
)

// MG1 is an M/G/1 queue: Poisson-like arrivals at rate Lambda, i.i.d.
// service times with mean Mu1 and second moment Mu2.
type MG1 struct {
	Lambda   float64 // arrival rate
	Mu1, Mu2 float64 // first and second moments of the service time
}

// Rho returns the utilization λ·E[S].
func (q MG1) Rho() float64 { return q.Lambda * q.Mu1 }

// Stable reports whether the queue is stable (ρ < 1).
func (q MG1) Stable() bool { return q.Rho() < 1 }

// MeanQueueAtDeparture returns the expected number in system at customer
// departure instants, ρ + λ²·E[S²] / (2(1−ρ)) — the formula quoted in
// Claim 6.8's proof.
func (q MG1) MeanQueueAtDeparture() float64 {
	rho := q.Rho()
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho + q.Lambda*q.Lambda*q.Mu2/(2*(1-rho))
}

// MeanWait returns the expected waiting time in queue (excluding service),
// the Pollaczek–Khinchine mean-wait formula λ·E[S²] / (2(1−ρ)).
func (q MG1) MeanWait() float64 {
	rho := q.Rho()
	if rho >= 1 {
		return math.Inf(1)
	}
	return q.Lambda * q.Mu2 / (2 * (1 - rho))
}

// MeanSojourn returns the expected total time in system.
func (q MG1) MeanSojourn() float64 { return q.MeanWait() + q.Mu1 }

// SPrime is the dominating service distribution S'₀ of Claim 6.8: value
// W−U with probability exactly 1−R, and k(W−U) with probability
// R/(k−1)⁴ − R/k⁴ for every integer k >= 2. It stochastically dominates the
// true per-interval service time of Algorithm B.
type SPrime struct {
	W, U int
	R    float64
}

// Mean returns E[S'₀] = (W−U)·(1−R + R·Σ_{k>=2} k(1/(k−1)⁴ − 1/k⁴)).
func (s SPrime) Mean() float64 {
	base := float64(s.W - s.U)
	tail := 0.0
	for k := 2; k < 100_000; k++ {
		tail += float64(k) * (1/math.Pow(float64(k-1), 4) - 1/math.Pow(float64(k), 4))
	}
	return base * ((1 - s.R) + s.R*tail)
}

// SecondMoment returns E[(S'₀)²].
func (s SPrime) SecondMoment() float64 {
	base := float64(s.W-s.U) * float64(s.W-s.U)
	tail := 0.0
	for k := 2; k < 100_000; k++ {
		tail += float64(k) * float64(k) * (1/math.Pow(float64(k-1), 4) - 1/math.Pow(float64(k), 4))
	}
	return base * ((1 - s.R) + s.R*tail)
}

// Draw samples S'₀.
func (s SPrime) Draw(rng *xrand.Source) float64 {
	u := rng.Float64()
	if u < 1-s.R {
		return float64(s.W - s.U)
	}
	// Invert the tail: find k >= 2 with cumulative tail mass >= u.
	rem := (u - (1 - s.R)) / s.R // in [0, 1): mass position within the tail
	// Tail CDF up to k is 1 − 1/k⁴ (starting from k=2 with mass 1−1/2⁴ ...
	// shifted: P(K <= k) = 1 − 1/k⁴ normalized from k=1). Solve directly.
	k := 2
	cum := 0.0
	for {
		cum += 1/math.Pow(float64(k-1), 4) - 1/math.Pow(float64(k), 4)
		if rem < cum || k > 1<<20 {
			return float64(k) * float64(s.W-s.U)
		}
		k++
	}
}

// SDoublePrime is the scaled system S”₀ of Claim 6.8: value k·W/U with
// probability 1/k⁴ − 1/(k+1)⁴ for every integer k >= 1. Its mean is
// (W/U)·Σ 1/k³ < 1.21·W/U, the constant quoted in the paper.
type SDoublePrime struct {
	W, U int
}

// sdpMoments returns Σ k·p_k and Σ k²·p_k over 1 <= k < 100 000, with
// p_k = 1/k⁴ − 1/(k+1)⁴: the first and second moments of S”₀ per unit of
// W/U and of (W/U)². They do not depend on W or U, so the 200 000 Pow
// calls run once per process.
var sdpMoments = sync.OnceValues(func() (first, second float64) {
	for k := 1; k < 100_000; k++ {
		pk := 1/math.Pow(float64(k), 4) - 1/math.Pow(float64(k+1), 4)
		first += float64(k) * pk
		second += float64(k) * float64(k) * pk
	}
	return first, second
})

// Mean returns E[S”₀] = (W/U)·Σ_{k>=1} k(1/k⁴ − 1/(k+1)⁴) = (W/U)·ζ-ish
// sum Σ 1/k³ ≈ 1.202.
func (s SDoublePrime) Mean() float64 {
	sum, _ := sdpMoments()
	return float64(s.W) / float64(s.U) * sum
}

// SecondMoment returns E[(S”₀)²].
func (s SDoublePrime) SecondMoment() float64 {
	_, sum := sdpMoments()
	return float64(s.W) * float64(s.W) / (float64(s.U) * float64(s.U)) * sum
}

// FIFOResult summarizes a FIFO-server simulation.
type FIFOResult struct {
	Served      int
	MeanQueue   float64 // time-averaged number waiting
	MaxQueue    int
	MeanSojourn float64 // mean time from arrival to departure
}

// SimulateFIFO runs a discrete-time FIFO single server: at each step an
// arrival occurs with probability rate, with service time drawn from draw.
// Returns summary statistics over the horizon.
func SimulateFIFO(rng *xrand.Source, rate float64, draw func(*xrand.Source) float64, horizon int) FIFOResult {
	type job struct{ arrive, need float64 }
	var q []job
	var res FIFOResult
	var busyUntil float64
	var queueArea float64
	var sojournSum float64
	for t := 0; t < horizon; t++ {
		if rng.Float64() < rate {
			q = append(q, job{arrive: float64(t), need: draw(rng)})
		}
		// Serve: start jobs whenever the server frees up within this step.
		for len(q) > 0 && busyUntil <= float64(t) {
			j := q[0]
			q = q[1:]
			start := busyUntil
			if j.arrive > start {
				start = j.arrive
			}
			busyUntil = start + j.need
			sojournSum += busyUntil - j.arrive
			res.Served++
		}
		queueArea += float64(len(q))
		if len(q) > res.MaxQueue {
			res.MaxQueue = len(q)
		}
	}
	res.MeanQueue = queueArea / float64(horizon)
	if res.Served > 0 {
		res.MeanSojourn = sojournSum / float64(res.Served)
	}
	return res
}
