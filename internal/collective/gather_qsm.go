package collective

import (
	"parbw/internal/qsm"
)

// GatherQSM collects one value from every processor at root through shared
// memory: writers publish into their own cells (requests spread m per step
// on the QSM(m)), then the root reads all p cells — h = p at the root, so
// Θ(g·p) on the QSM(g) versus Θ(p) on the QSM(m).
func GatherQSM(m *qsm.Machine, root int, vals []int64) []int64 {
	qsmScratch(m)
	p := m.P()
	if len(vals) != p {
		panic("collective: GatherQSM needs one value per processor")
	}
	bw := qsmBW(m)
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		if i == root {
			return
		}
		c.WriteAt(i/bw, i, vals[i])
	})
	out := make([]int64, p)
	out[root] = vals[root]
	m.Phase(func(c *qsm.Ctx) {
		if c.ID() != root {
			return
		}
		for i := 0; i < p; i++ {
			if i == root {
				continue
			}
			slot := i
			if i > root {
				slot = i - 1
			}
			out[i] = c.ReadAt(slot, i)
		}
	})
	return out
}

// BroadcastVecQSM broadcasts a k-item vector from root through shared
// memory with a pipelined binary doubling of readers per item: item j's
// copies double one phase behind item j−1's, so the total is
// O((k + lg p)·phase) instead of k·lg p phases. Returns the vector read by
// the last processor.
func BroadcastVecQSM(m *qsm.Machine, root int, vec []int64) []int64 {
	qsmScratch(m)
	p := m.P()
	k := len(vec)
	if k == 0 {
		return nil
	}
	if p == 1 {
		return append([]int64(nil), vec...)
	}
	// Simple pipelined structure on the item axis: one BroadcastQSM per
	// item would pay lg p phases each. Instead lay the vector into k cells
	// by the root (spread), then run ONE doubling broadcast of a "ready"
	// token; after processor i learns the token it reads the k cells
	// directly, spread m per step — total O(lg p + k·p/m) on the QSM(m)
	// versus k·g·... on the QSM(g). Cells [p, p+k) hold the vector.
	if m.Mem() < p+k {
		panic("collective: BroadcastVecQSM needs Mem >= p + k")
	}
	bw := qsmBW(m)
	m.Phase(func(c *qsm.Ctx) {
		if c.ID() != root {
			return
		}
		for j, v := range vec {
			c.WriteAt(j, p+j, v)
		}
	})
	BroadcastQSM(m, root, 1) // the ready token
	got := make([][]int64, p)
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		if i == root {
			got[i] = append([]int64(nil), vec...)
			return
		}
		vals := make([]int64, k)
		for j := 0; j < k; j++ {
			// Spread: processor i's j-th read at a step staggered by both
			// i and j so each step carries at most bw requests.
			slot := j*((p+bw-1)/bw) + i/bw
			vals[j] = c.ReadAt(slot, p+j)
		}
		got[i] = vals
	})
	far := (root + p - 1) % p
	return got[far]
}
