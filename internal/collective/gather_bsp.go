package collective

import (
	"fmt"

	"parbw/internal/bsp"
)

// GatherBSP collects one value from every processor at root and returns the
// gathered slice (indexed by source processor). Cost: the root receives
// p−1 messages — h = p−1 — so Θ(g·p) on the BSP(g) versus Θ(p) on the
// BSP(m): the receive-side mirror of one-to-all.
func GatherBSP(m *bsp.Machine, root int, vals []int64) []int64 {
	p := m.P()
	if len(vals) != p {
		panic("collective: GatherBSP needs one value per processor")
	}
	out := make([]int64, p)
	out[root] = vals[root]
	m.Superstep(func(c *bsp.Ctx) {
		i := c.ID()
		if i == root {
			return
		}
		// One message per sender; the per-step aggregate is p−1 only in
		// step 0 if unscheduled, so stagger by sender index.
		slot := i
		if i > root {
			slot = i - 1
		}
		if m.Cost().Global() {
			mm := m.Cost().M
			c.SendAt(slot%max((p+mm-1)/mm*2, 1), root, bsp.Msg{A: vals[i], B: int64(i)})
		} else {
			c.SendAt(0, root, bsp.Msg{A: vals[i], B: int64(i)})
		}
	})
	for _, msg := range m.Inbox(root) {
		out[msg.B] = msg.A
	}
	return out
}

// BroadcastVecBSP broadcasts a k-item vector from root to every processor
// using a pipelined binary tree: item j follows item j−1 down the tree one
// superstep behind, so the total is O((k + depth)·stage) rather than
// k·depth·stage — the standard pipelining win that both models enjoy, with
// the BSP(m) paying max(h, c_m, L) and the BSP(g) paying max(g·h, L) per
// stage. It panics unless every processor received exactly k items, and
// returns the vector received by the farthest processor.
//
// Host memory is O(p + k): a node forwards each item in the superstep after
// it arrives, so it never holds more than one received, unforwarded item,
// only the farthest node keeps the whole vector, and the tree and each
// node's pipeline state are one length-p column of records built once.
func BroadcastVecBSP(m *bsp.Machine, root int, vec []int64) []int64 {
	p := m.P()
	k := len(vec)
	if k == 0 {
		return nil
	}
	if p == 1 {
		return append([]int64(nil), vec...)
	}
	// Binary tree over virtual ids (root = 0): virtual id v is processor
	// (v + root) mod p.
	rid := func(v int) int { return (v + root) % p }
	depth := 0
	for 1<<depth < p {
		depth++
	}

	mm := m.Cost().Budget(p)
	// Stagger senders so that each injection step carries at most m
	// messages: nodes are striped into K = ⌈p/m⌉ groups by virtual id and
	// group q uses steps 2q and 2q+1 for its two child messages.
	stripes := (p + mm - 1) / mm

	// Per-node pipeline state, one record per processor, built once. The
	// root forwards straight from vec.
	nodes := make([]pipeNode, p)
	for v := range p {
		nd := &nodes[rid(v)]
		nd.kids = [2]int32{-1, -1}
		for c := range 2 {
			if child := 2*v + 1 + c; child < p {
				nd.kids[c] = int32(rid(child))
			}
		}
		nd.first = int32(2 * (v % stripes))
	}
	nodes[root].got = k
	far := rid(p - 1)
	out := make([]int64, k)
	take := func(i int, msg *bsp.Msg) {
		nd := &nodes[i]
		if nd.got != nd.fwd || int(msg.B) != nd.got {
			outOfStep(i, msg.B, nd.got-nd.fwd)
		}
		nd.held = msg.A
		nd.got++
		if i == far {
			out[msg.B] = msg.A
		}
	}

	// Each superstep, every node forwards its oldest unforwarded item to
	// both children (items pipeline down the tree one level per superstep).
	t := 0
	step := func(c *bsp.Ctx) {
		i := c.ID()
		// At t = 0 the inbox holds the caller's previous superstep, not ours.
		if t > 0 {
			in := c.Recv()
			for k := range in {
				take(i, &in[k])
			}
		}
		nd := &nodes[i]
		j := nd.fwd
		if j >= nd.got {
			return
		}
		item := nd.held
		if i == root {
			item = vec[j]
		}
		// A node with a second child has a first one.
		if a := nd.kids[0]; a >= 0 {
			slot := int(nd.first)
			c.SendAt(slot, int(a), bsp.Msg{A: item, B: int64(j)})
			if b := nd.kids[1]; b >= 0 {
				c.SendAt(slot+1, int(b), bsp.Msg{A: item, B: int64(j)})
			}
		}
		nd.fwd = j + 1
	}
	for total := k + depth + 2; t < total; t++ {
		m.Superstep(step)
	}
	in := m.Inbox(far)
	for k := range in {
		take(far, &in[k])
	}
	for i := range nodes {
		if n := nodes[i].got; n != k {
			panic(fmt.Sprintf("collective: pipelined broadcast incomplete: processor %d received %d of %d items", i, n, k))
		}
	}
	return out
}

// pipeNode is one processor's state in the pipelined vector broadcast: its
// two children (-1 = none) and the first of the two steps its stripe
// injects on, built once; the items it has received and forwarded; and the
// received item not yet forwarded.
type pipeNode struct {
	kids     [2]int32
	first    int32
	got, fwd int
	held     int64
}

// outOfStep panics for an item that arrives out of pipeline order; it is
// kept out of line so the per-item path stays small.
//
//go:noinline
func outOfStep(i int, item int64, held int) {
	panic(fmt.Sprintf("collective: pipelined broadcast out of step: processor %d got item %d holding %d unforwarded", i, item, held))
}
