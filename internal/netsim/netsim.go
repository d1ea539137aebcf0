// Package netsim simulates a concrete contention network — p sources
// sharing m Ethernet-like channels, the model of Raghavan & Upfal and
// Goldberg & MacKenzie that the paper's Section 3 compares against — and
// measures the real completion time of an injection schedule on it.
//
// Each time step, every source holding a flit whose scheduled time has
// arrived picks one of the m channels uniformly at random; a channel
// delivers a flit only if exactly one source chose it, and colliding
// sources retry in subsequent steps. With k simultaneous contenders the
// expected throughput is k·(1−1/m)^{k−1} ≈ k·e^{−k/m}: it peaks at m/e
// when k = m and *collapses* exponentially beyond — the slotted-ALOHA
// curve. This is the physical behaviour that the BSP(m)'s pessimistic
// penalty f^u(m_t) = e^{m_t/m − 1} abstracts: an m-channel contention
// network realizes an *effective* aggregate bandwidth of m/e, and a
// schedule is stable on it exactly when its offered per-step load stays
// below that capacity — i.e. Unbalanced-Send pacing with period
// (1+ε)n/m_eff. The validation experiment shows paced schedules draining
// at the planned rate while naive bursts enter the collapse regime and
// take an order of magnitude longer.
package netsim

import (
	"sort"

	"parbw/internal/xrand"
)

// Config describes the channel network.
type Config struct {
	Sources  int    // p
	Channels int    // m
	Seed     uint64 // contention randomness
	// MaxSteps aborts a run that fails to drain (0 = 100·(n + p) steps).
	MaxSteps int
}

// Result reports one network run.
type Result struct {
	Makespan  int     // step at which the last flit was delivered
	Attempts  int     // total channel attempts (including collisions)
	Delivered int     // flits delivered
	Collided  int     // attempts lost to collisions
	MaxQueue  int     // peak per-source backlog
	Truncated bool    // hit MaxSteps before draining
	Goodput   float64 // Delivered / Makespan
}

// Run drains the schedule through the network. planned[i] holds source i's
// flit injection times (any order; sorted internally): source i offers its
// next flit at max(planned time, previous flit's delivery attempt chain),
// one attempt per step.
func Run(cfg Config, planned [][]int) Result {
	queues, total := newQueues(cfg, planned)
	rng := xrand.New(cfg.Seed)
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 100 * (total + cfg.Sources + 1)
	}

	var res Result
	pick := make([]int, cfg.Sources) // channel chosen this step, -1 = idle
	count := make([]int, cfg.Channels)
	for t := 0; res.Delivered < total && t < maxSteps; t++ {
		for c := range count {
			count[c] = 0
		}
		offering := 0
		backlog := 0
		for i := range queues {
			pick[i] = -1
			ready := queues[i].ready(t)
			backlog += ready
			if ready == 0 {
				continue
			}
			ch := rng.Intn(cfg.Channels)
			pick[i] = ch
			count[ch]++
			offering++
			res.Attempts++
		}
		if backlog > res.MaxQueue {
			res.MaxQueue = backlog
		}
		for i := range queues {
			ch := pick[i]
			if ch < 0 {
				continue
			}
			if count[ch] == 1 {
				queues[i].head++
				res.Delivered++
				res.Makespan = t + 1
			} else {
				res.Collided++
			}
		}
	}
	if res.Delivered < total {
		res.Truncated = true
		res.Makespan = maxSteps
	}
	if res.Makespan > 0 {
		res.Goodput = float64(res.Delivered) / float64(res.Makespan)
	}
	return res
}

// queue is one source's planned flit times, sorted. The first head flits
// have been delivered and the first due are ready by the current step; both
// only move forward, so a step costs O(1) per source amortized, however
// long the backlog.
type queue struct {
	times []int
	head  int
	due   int
}

// ready advances the due cursor to step t (steps never go back) and returns
// the number of ready, undelivered flits. The earliest of them is always
// times[head].
func (q *queue) ready(t int) int {
	for q.due < len(q.times) && q.times[q.due] <= t {
		q.due++
	}
	return q.due - q.head
}

// newQueues validates cfg against planned and builds each source's sorted
// queue, returning the queues and the total flit count.
func newQueues(cfg Config, planned [][]int) ([]queue, int) {
	if len(planned) != cfg.Sources {
		panic("netsim: planned rows must equal Sources")
	}
	if cfg.Channels < 1 {
		panic("netsim: need at least one channel")
	}
	queues := make([]queue, cfg.Sources)
	total := 0
	for i, ts := range planned {
		qs := append([]int(nil), ts...)
		sort.Ints(qs)
		queues[i].times = qs
		total += len(qs)
	}
	return queues, total
}

// NaiveSchedule plans every source's flits back-to-back from step 0 — the
// unscheduled burst.
func NaiveSchedule(x []int) [][]int {
	out := make([][]int, len(x))
	for i, k := range x {
		ts := make([]int, k)
		for j := range ts {
			ts[j] = j
		}
		out[i] = ts
	}
	return out
}

// UnbalancedSchedule plans flits with the Theorem 6.2 schedule: source i
// with x_i <= T gets a uniform cyclic start in the period T = (1+ε)n/m;
// overloaded sources start at 0.
func UnbalancedSchedule(rng *xrand.Source, x []int, m int, eps float64) [][]int {
	n := 0
	for _, k := range x {
		n += k
	}
	T := int((1 + eps) * float64(n) / float64(m))
	if T < 1 {
		T = 1
	}
	out := make([][]int, len(x))
	for i, k := range x {
		ts := make([]int, k)
		if k > T {
			for j := range ts {
				ts[j] = j
			}
		} else {
			start := rng.Intn(T)
			for j := range ts {
				ts[j] = (start + j) % T
			}
		}
		out[i] = ts
	}
	return out
}

// ExpectedThroughput returns the per-step expected deliveries when k
// sources contend for m channels: k·(1−1/m)^{k−1}.
func ExpectedThroughput(k, m int) float64 {
	if k <= 0 {
		return 0
	}
	p := 1.0
	base := 1 - 1/float64(m)
	for i := 0; i < k-1; i++ {
		p *= base
	}
	return float64(k) * p
}

// RunBackoff drains the schedule with binary exponential backoff (the
// protocol family studied by Goldberg & MacKenzie in the paper's Section 3
// citations): after a collision a source waits a uniform number of steps
// in [0, 2^c) where c is its collision count (capped), instead of retrying
// immediately. Backoff stabilizes moderate overloads without global
// coordination — the decentralized alternative to Unbalanced-Send's
// schedule — at the price of idle steps at low load.
func RunBackoff(cfg Config, planned [][]int, maxExp int) Result {
	queues, total := newQueues(cfg, planned)
	if maxExp < 1 {
		maxExp = 10
	}
	rng := xrand.New(cfg.Seed)
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1000 * (total + cfg.Sources + 1)
	}

	var res Result
	pick := make([]int, cfg.Sources)
	count := make([]int, cfg.Channels)
	waitUntil := make([]int, cfg.Sources) // backoff deadline per source
	collisions := make([]int, cfg.Sources)
	for t := 0; res.Delivered < total && t < maxSteps; t++ {
		for c := range count {
			count[c] = 0
		}
		backlog := 0
		for i := range queues {
			pick[i] = -1
			ready := queues[i].ready(t)
			backlog += ready
			if ready == 0 || t < waitUntil[i] {
				continue
			}
			ch := rng.Intn(cfg.Channels)
			pick[i] = ch
			count[ch]++
			res.Attempts++
		}
		if backlog > res.MaxQueue {
			res.MaxQueue = backlog
		}
		for i := range queues {
			ch := pick[i]
			if ch < 0 {
				continue
			}
			if count[ch] == 1 {
				queues[i].head++
				res.Delivered++
				res.Makespan = t + 1
				collisions[i] = 0
			} else {
				res.Collided++
				if collisions[i] < maxExp {
					collisions[i]++
				}
				waitUntil[i] = t + 1 + rng.Intn(1<<collisions[i])
			}
		}
	}
	if res.Delivered < total {
		res.Truncated = true
		res.Makespan = maxSteps
	}
	if res.Makespan > 0 {
		res.Goodput = float64(res.Delivered) / float64(res.Makespan)
	}
	return res
}
