package problems

import (
	"slices"

	"parbw/internal/bsp"
	"parbw/internal/collective"
	"parbw/internal/sched"
)

// SampleSortBSP sorts n keys (distributed blockwise over the p processors)
// by randomized sample sort: each processor draws `oversample` local
// samples, the samples are gathered at processor 0, sorted locally, and
// p−1 splitters are broadcast back (a pipelined vector broadcast); each
// processor then routes its keys to the owning bucket with a scheduled
// unbalanced send and sorts its bucket locally. Returns the sorted keys,
// bucket-concatenated (bucket i at processor i).
//
// This is the classic n ≫ p sorting algorithm: the splitter broadcast
// moves p·(p−1) words, so unlike the splitter-free columnsort it is NOT
// suitable for the Table 1 n = p regime — the ablation experiment
// `ablation/sort` quantifies the crossover. Cost on the BSP(m):
// O(p²/m + (1+ε)n/m + (n/p)·lg n) with bucket sizes balanced w.h.p. by the
// oversampling.
func SampleSortBSP(m *bsp.Machine, keys []int64, oversample int) []int64 {
	p := m.P()
	n := len(keys)
	if n == 0 {
		return nil
	}
	if oversample < 1 {
		oversample = 8
	}
	per := (n + p - 1) / p
	blockOf := func(i int) (int, int) {
		lo := i * per
		hi := lo + per
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		return lo, hi
	}

	// Phase 1: local sort + sampling. Each processor charges its local
	// work and contributes `oversample` evenly spaced local samples.
	samples := make([][]int64, p)
	m.Superstep(func(c *bsp.Ctx) {
		i := c.ID()
		lo, hi := blockOf(i)
		blk := keys[lo:hi]
		local := append([]int64(nil), blk...)
		slices.Sort(local)
		c.Charge(len(local) * bitsLen(len(local)))
		copy(keys[lo:hi], local)
		s := make([]int64, 0, oversample)
		for j := 0; j < oversample && len(local) > 0; j++ {
			s = append(s, local[j*len(local)/oversample])
		}
		samples[i] = s
	})

	// Phase 2: gather all samples at processor 0 (scheduled: per-slot load
	// bounded by striping senders), sort them, pick p−1 splitters.
	plan := make(sched.Plan, p)
	for i := 1; i < p; i++ {
		for _, s := range samples[i] {
			plan[i] = append(plan[i], bsp.Msg{Dst: 0, A: s})
		}
	}
	if _, total, _ := plan.Flits(p); total > 0 {
		sched.UnbalancedSend(m, plan, sched.Options{KnownN: total})
	}
	var splitters []int64
	m.Superstep(func(c *bsp.Ctx) {
		if c.ID() != 0 {
			return
		}
		all := append([]int64(nil), samples[0]...)
		for _, msg := range c.Recv() {
			all = append(all, msg.A)
		}
		slices.Sort(all)
		c.Charge(len(all) * bitsLen(len(all)))
		splitters = make([]int64, 0, p-1)
		for b := 1; b < p; b++ {
			splitters = append(splitters, all[b*len(all)/p])
		}
	})

	// Phase 3: broadcast the splitter vector (pipelined).
	if p > 1 {
		splitters = collective.BroadcastVecBSP(m, 0, splitters)
	}

	// Phase 4: route keys to buckets with a scheduled unbalanced send.
	bucketOf := func(k int64) int {
		lo, hi := 0, len(splitters)
		for lo < hi {
			mid := (lo + hi) / 2
			if splitters[mid] <= k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	route := make(sched.Plan, p)
	for i := 0; i < p; i++ {
		lo, hi := blockOf(i)
		for _, k := range keys[lo:hi] {
			route[i] = append(route[i], bsp.Msg{Dst: int32(bucketOf(k)), A: k})
		}
	}
	if _, total, _ := route.Flits(p); total > 0 {
		sched.UnbalancedSend(m, route, sched.Options{KnownN: total})
	}

	// Phase 5: local bucket sort and concatenation.
	buckets := make([][]int64, p)
	m.Superstep(func(c *bsp.Ctx) {
		i := c.ID()
		var b []int64
		for _, msg := range c.Recv() {
			b = append(b, msg.A)
		}
		slices.Sort(b)
		c.Charge(len(b) * bitsLen(max(len(b), 1)))
		buckets[i] = b
	})
	out := make([]int64, 0, n)
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}
