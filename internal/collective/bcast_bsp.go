package collective

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/model"
)

// BroadcastBSP broadcasts val from processor root to all processors and
// returns out with out[i] holding the value processor i obtained through
// actual message traffic (out[root] = val). The algorithm is chosen by the
// machine's cost model.
func BroadcastBSP(m *bsp.Machine, root int, val int64) []int64 {
	p := m.P()
	out := make([]int64, p)
	have := make([]bool, p)
	out[root], have[root] = val, true
	if p == 1 {
		return out
	}
	// Work in a rotated index space where the root is virtual processor 0.
	vid := func(i int) int { return (i - root + p) % p }
	rid := func(v int) int { return (v + root) % p }

	collect := func() {
		for i := 0; i < p; i++ {
			if msgs := m.Inbox(i); len(msgs) > 0 && !have[i] {
				out[i], have[i] = msgs[0].A, true
			}
		}
	}

	// Stage 1: a degree-d tree over the first mm = min(budget, p) virtual
	// processors. A BSP(g) has no aggregate limit, so mm = p and its whole
	// broadcast is this tree, of degree treeDegree(L, g). On the BSP(m),
	// d = L: in each superstep the k informed processors inject at most one
	// flit per step, so every step carries at most k <= mm <= m messages:
	// no overload.
	cost := m.Cost()
	var d int
	switch cost.Kind {
	case model.KindBSPg:
		d = treeDegree(cost.L, cost.G)
	case model.KindBSPm, model.KindBSPSelfSched:
		d = max(cost.L, 2)
	default:
		panic(fmt.Sprintf("collective: BroadcastBSP on %v", cost.Kind))
	}
	mm := min(cost.Budget(p), p)
	for k := 1; k < mm; k = k * (d + 1) {
		kk := k
		m.Superstep(func(c *bsp.Ctx) {
			v := vid(c.ID())
			if v >= kk {
				return
			}
			for j := 0; j < d; j++ {
				t := kk + v*d + j
				if t < mm {
					c.SendAt(j, rid(t), bsp.Msg{A: out[c.ID()]})
				}
			}
		})
		collect()
	}
	// Stage 2: the mm informed processors fan out to the rest, m messages
	// per step: virtual processor v informs mm+v, 2mm+v, ...
	if mm < p {
		m.Superstep(func(c *bsp.Ctx) {
			v := vid(c.ID())
			if v >= mm {
				return
			}
			for r := 0; ; r++ {
				t := mm + r*mm + v
				if t >= p {
					break
				}
				c.SendAt(r, rid(t), bsp.Msg{A: out[c.ID()]})
			}
		})
		collect()
	}
	return out
}

// BroadcastTernaryBSPg broadcasts one bit from processor 0 on a BSP(g)
// machine using the non-receipt algorithm of Section 4.2: at step i each
// informed processor j <= 3^{i-1} sends to j + 3^{i-1} if the bit is 0 and
// to j + 2·3^{i-1} if the bit is 1, so the third of each triple learns the
// bit from silence. It completes in ⌈log₃ p⌉ supersteps, each sending at
// most one message per processor, and returns the bit each processor
// decoded (-1 if undecided, which indicates a bug).
//
// The machine must use the BSP(g) cost model; the algorithm's time is
// g·⌈log₃ p⌉ when L <= g.
func BroadcastTernaryBSPg(m *bsp.Machine, bit int64) []int64 {
	if m.Cost().Kind != model.KindBSPg {
		panic("collective: BroadcastTernaryBSPg requires a BSP(g) machine")
	}
	if bit != 0 && bit != 1 {
		panic("collective: BroadcastTernaryBSPg broadcasts a single bit")
	}
	p := m.P()
	decoded := make([]int64, p)
	for i := range decoded {
		decoded[i] = -1
	}
	decoded[0] = bit
	for k := 1; k < p; k = k * 3 {
		kk := k
		m.Superstep(func(c *bsp.Ctx) {
			j := c.ID()
			if j >= kk || decoded[j] < 0 {
				return
			}
			// Send to exactly one of the two candidate targets; the other
			// learns the bit from non-receipt.
			var t int
			if decoded[j] == 0 {
				t = j + kk
			} else {
				t = j + 2*kk
			}
			if t < p {
				c.Send(t, 0, decoded[j])
			}
		})
		// Decode: a processor in [k, 3k) that received a message knows the
		// bit directly; one that did not, but was a candidate target this
		// round, infers the complementary bit from silence.
		for i := kk; i < 3*kk && i < p; i++ {
			if decoded[i] >= 0 {
				continue
			}
			if len(m.Inbox(i)) > 0 {
				decoded[i] = m.Inbox(i)[0].A
			} else if i < 2*kk {
				// Candidate "bit==0" target got nothing: sender exists
				// (i-k is informed) iff i-k < k, which holds here; silence
				// means the bit is 1.
				if i-kk < kk && decoded[i-kk] >= 0 {
					decoded[i] = 1
				}
			} else {
				// Candidate "bit==1" target got nothing: silence means 0.
				if i-2*kk < kk && decoded[i-2*kk] >= 0 {
					decoded[i] = 0
				}
			}
		}
	}
	return decoded
}

// OneToAllBSP performs one-to-all personalized communication: root sends
// vals[i] to each processor i != root in a single superstep (the intro's
// motivating example). It returns the value received by each processor
// (out[root] = vals[root] locally). Cost: g·(p−1) + L on the BSP(g) versus
// p−1 + L on the BSP(m) — the Θ(g) separation of Table 1 row 1.
func OneToAllBSP(m *bsp.Machine, root int, vals []int64) []int64 {
	p := m.P()
	if len(vals) != p {
		panic("collective: OneToAllBSP needs one value per processor")
	}
	out := make([]int64, p)
	out[root] = vals[root]
	m.Superstep(func(c *bsp.Ctx) {
		if c.ID() != root {
			return
		}
		slot := 0
		for i := 0; i < p; i++ {
			if i == root {
				continue
			}
			// One flit per step: the root pipelines p−1 sends. With an
			// aggregate limit this never exceeds m >= 1 per step; with a
			// local limit the g·h term charges g(p−1).
			c.SendAt(slot, i, bsp.Msg{A: vals[i]})
			slot++
		}
	})
	for i := 0; i < p; i++ {
		if i == root {
			continue
		}
		if msgs := m.Inbox(i); len(msgs) > 0 {
			out[i] = msgs[0].A
		}
	}
	return out
}
