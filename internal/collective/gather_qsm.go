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
	bw := m.Cost().Budget(p)
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
// memory. The root writes the vector once into cells [p, p+k), one
// BroadcastQSM of a ready token tells every processor it is there, and then
// every processor reads all k cells in one phase, processor i's j-th read
// in step j·⌈p/b⌉ + ⌊i/b⌋, so each step carries at most b requests (b = m on
// the QSM(m), p on the QSM(g)). Every cell has p−1 readers (κ = p−1), so
// beyond the token broadcast the cost is k + max(k·⌈p/m⌉, p−1) on the
// QSM(m) and g·k + max(g·k, p−1) on the QSM(g). The machine needs
// Mem >= p + k. Returns the vector read by processor root−1 (mod p).
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
	if m.Mem() < p+k {
		panic("collective: BroadcastVecQSM needs Mem >= p + k")
	}
	bw := m.Cost().Budget(p)
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
			slot := j*((p+bw-1)/bw) + i/bw
			vals[j] = c.ReadAt(slot, p+j)
		}
		got[i] = vals
	})
	far := (root + p - 1) % p
	return got[far]
}
