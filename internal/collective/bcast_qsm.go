package collective

import (
	"fmt"

	"parbw/internal/model"
	"parbw/internal/qsm"
)

// qsmScratch panics unless the machine has the 2p words of scratch memory
// the collective primitives use (cells [0, p) for value copies and
// [p, 2p) for secondary layouts).
func qsmScratch(m *qsm.Machine) {
	if m.Mem() < 2*m.P() {
		panic(fmt.Sprintf("collective: QSM primitives need Mem >= 2p (have %d, p=%d)", m.Mem(), m.P()))
	}
}

// BroadcastQSM broadcasts val from processor root to all processors through
// shared memory and returns the value each processor read. On the QSM(g) it
// uses a degree-g concurrent-read tree (Θ(g·lg p/lg g)); on the QSM(m) it
// doubles the number of copies each round, spreading the k-th round's k
// requests over ⌈k/m⌉ steps (Θ(lg m + p/m)).
func BroadcastQSM(m *qsm.Machine, root int, val int64) []int64 {
	qsmScratch(m)
	p := m.P()
	out := make([]int64, p)
	have := make([]bool, p)
	out[root], have[root] = val, true
	if p == 1 {
		return out
	}
	vid := func(i int) int { return (i - root + p) % p }

	// Seed: the root writes its value into copy cell 0.
	m.Phase(func(c *qsm.Ctx) {
		if c.ID() == root {
			c.Write(0, val)
		}
	})

	cost := m.Cost()
	switch cost.Kind {
	case model.KindQSMg:
		d := cost.G
		if d < 2 {
			d = 2
		}
		// Invariant: copy cells [0, k) hold val; virtual processors [0, k)
		// are informed. Each round, targets [k, k + k·d) read cell
		// (t-k)/d — at most d concurrent readers per cell, so the phase
		// costs max(g·1, κ=d) = max(g, d). A second phase writes the new
		// copies (the value read in a phase is usable only in the next).
		for k := 1; k < p; k = k + k*d {
			kk := k
			m.Phase(func(c *qsm.Ctx) {
				v := vid(c.ID())
				if v < kk || v >= kk+kk*d || v >= p {
					return
				}
				got := c.Read((v - kk) / d)
				out[c.ID()], have[c.ID()] = got, true
			})
			m.Phase(func(c *qsm.Ctx) {
				v := vid(c.ID())
				if v < kk || v >= kk+kk*d || v >= p {
					return
				}
				c.Write(v, out[c.ID()])
			})
		}

	case model.KindQSMm:
		mm := cost.Budget(p)
		// Doubling: round k has k new readers of k distinct cells
		// (κ = 1), spread over ⌈k/m⌉ request steps.
		for k := 1; k < p; k = 2 * k {
			kk := k
			m.Phase(func(c *qsm.Ctx) {
				v := vid(c.ID())
				if v < kk || v >= 2*kk || v >= p {
					return
				}
				slot := (v - kk) / mm
				got := c.ReadAt(slot, v-kk)
				out[c.ID()], have[c.ID()] = got, true
			})
			m.Phase(func(c *qsm.Ctx) {
				v := vid(c.ID())
				if v < kk || v >= 2*kk || v >= p {
					return
				}
				c.WriteAt((v-kk)/mm, v, out[c.ID()])
			})
		}

	default:
		panic(fmt.Sprintf("collective: BroadcastQSM on %v", cost.Kind))
	}
	return out
}

// OneToAllQSM performs one-to-all personalized communication through shared
// memory: root writes vals[i] into cell i for every i, then every processor
// reads its own cell. Cost: Θ(g·p) on the QSM(g) (the root's p−1 writes pay
// g each) versus Θ(p) on the QSM(m) — Table 1 row 1.
func OneToAllQSM(m *qsm.Machine, root int, vals []int64) []int64 {
	qsmScratch(m)
	p := m.P()
	if len(vals) != p {
		panic("collective: OneToAllQSM needs one value per processor")
	}
	out := make([]int64, p)
	out[root] = vals[root]
	m.Phase(func(c *qsm.Ctx) {
		if c.ID() != root {
			return
		}
		slot := 0
		for i := 0; i < p; i++ {
			if i == root {
				continue
			}
			c.WriteAt(slot, i, vals[i])
			slot++
		}
	})
	mm := m.Cost().Budget(p) // QSM(g): no aggregate limit, all reads in one step
	m.Phase(func(c *qsm.Ctx) {
		if c.ID() == root {
			return
		}
		v := (c.ID() - root + p) % p
		out[c.ID()] = c.ReadAt((v-1)/mm, c.ID())
	})
	return out
}
