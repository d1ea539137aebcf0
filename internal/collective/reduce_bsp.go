package collective

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/model"
)

// bspReduceParams returns the group size and tree fan-in used by the BSP
// reduction/prefix algorithms under the machine's cost model.
//
// BSP(g) uses no grouping (gsz = 1) and a degree-⌈L/g⌉ tree. BSP(m) first
// gathers groups of ⌈p/m⌉ processors at m leaders (cost ~p/m, exactly m
// messages per step), then runs an L-ary tree over the leaders (depth
// lg m / lg L, cost L per superstep) — the paper's
// O(p/m + L + L·lg m / lg L) combine.
func bspReduceParams(cost model.Cost, p int) (gsz, d int) {
	switch cost.Kind {
	case model.KindBSPg:
		return 1, treeDegree(cost.L, cost.G)
	case model.KindBSPm, model.KindBSPSelfSched:
		mm := min(cost.Budget(p), p)
		gsz = (p + mm - 1) / mm
		d = cost.L
		if d < 2 {
			d = 2
		}
		return gsz, d
	default:
		panic(fmt.Sprintf("collective: BSP reduction on %v", cost.Kind))
	}
}

// reduceTree holds the intermediate state of a grouped tree reduction on
// either machine, so that the down-sweep of a prefix computation can reuse
// the up-sweep's partials.
type reduceTree struct {
	gsz, d  int
	q       int       // number of leaders
	partial []int64   // per-leader running partial (subtree sums after up-sweep)
	snaps   [][]int64 // partial snapshot taken at the start of each round
	members [][]int64 // per-leader member values collected during gather
}

// leaderOf returns the leader processor of proc i.
func (t *reduceTree) leaderOf(i int) int { return (i / t.gsz) * t.gsz }

// upsweep gathers group values at leaders and reduces leader partials up a
// d-ary tree, leaving the total at processor 0. vals[i] is processor i's
// contribution.
func bspUpsweep(m *bsp.Machine, vals []int64, op Op) *reduceTree {
	gsz, d := bspReduceParams(m.Cost(), m.P())
	return bspUpsweepDeg(m, vals, op, gsz, d)
}

// bspUpsweepDeg is bspUpsweep with explicit group size and tree fan-in,
// used by the combine-tree ablation.
func bspUpsweepDeg(m *bsp.Machine, vals []int64, op Op, gsz, d int) *reduceTree {
	p := m.P()
	q := (p + gsz - 1) / gsz
	t := &reduceTree{gsz: gsz, d: d, q: q,
		partial: make([]int64, p),
		members: make([][]int64, p),
	}
	for i := 0; i < p; i++ {
		t.partial[i] = vals[i]
	}

	// Gather: group member rank r (1 <= r < gsz) sends its value to the
	// group leader in step r-1; every step carries at most q <= m messages.
	if gsz > 1 {
		m.Superstep(func(c *bsp.Ctx) {
			i := c.ID()
			r := i % gsz
			if r == 0 {
				return
			}
			c.SendAt(r-1, t.leaderOf(i), bsp.Msg{A: vals[i], B: int64(r)})
		})
		for l := 0; l < p; l += gsz {
			mem := make([]int64, gsz)
			mem[0] = vals[l]
			for _, msg := range m.Inbox(l) {
				mem[msg.B] = msg.A
			}
			t.members[l] = mem
			acc := mem[0]
			for r := 1; r < gsz && l+r < p; r++ {
				acc = op(acc, mem[r])
			}
			t.partial[l] = acc
		}
	}

	// Tree over leaders: in the round with stride s, leader index i (in
	// leader space) with i%(s*d) != 0 sends its partial to its base. The
	// base folds children in child order so non-commutative ops would still
	// see left-to-right order.
	for s := 1; s < q; s *= d {
		t.snaps = append(t.snaps, append([]int64(nil), t.partial...))
		ss := s
		m.Superstep(func(c *bsp.Ctx) {
			i := c.ID()
			if i%gsz != 0 {
				return
			}
			li := i / gsz // leader index
			if li%ss != 0 || li%(ss*d) == 0 {
				return
			}
			base := (li / (ss * d)) * (ss * d) * gsz
			c.Charge(1)
			c.SendAt(0, base, bsp.Msg{A: t.partial[i], B: int64(li)})
		})
		for l := 0; l < p; l += gsz {
			li := l / gsz
			if li%(ss*d) != 0 {
				continue
			}
			// Fold children in increasing child rank.
			in := m.Inbox(l)
			for j := 1; j < d; j++ {
				want := int64(li + j*ss)
				for _, msg := range in {
					if msg.B == want {
						t.partial[l] = op(t.partial[l], msg.A)
					}
				}
			}
		}
	}
	return t
}

// ReduceBSP reduces the per-processor values with op, leaving the result at
// processor 0 and returning it. op must be associative.
func ReduceBSP(m *bsp.Machine, vals []int64, op Op) int64 {
	if len(vals) != m.P() {
		panic("collective: ReduceBSP needs one value per processor")
	}
	t := bspUpsweep(m, vals, op)
	return t.partial[0]
}

// SumAllBSP reduces with op and broadcasts the result, so that every
// processor knows it; it returns the total. This is the "prefix sum and a
// broadcast to inform every processor of the value n" step of the Section 6
// schedulers, with cost τ = O(p/m + L + L·lg m / lg L) on the BSP(m).
func SumAllBSP(m *bsp.Machine, vals []int64, op Op) int64 {
	total := ReduceBSP(m, vals, op)
	BroadcastBSP(m, 0, total)
	return total
}

// PrefixSumBSP computes the exclusive prefix reduction of the
// per-processor values under op (identity id): out[i] = op-fold of
// vals[0..i). It also returns the total, known to every processor via a
// final broadcast.
func PrefixSumBSP(m *bsp.Machine, vals []int64, op Op, id int64) ([]int64, int64) {
	p := m.P()
	if len(vals) != p {
		panic("collective: PrefixSumBSP needs one value per processor")
	}
	t := bspUpsweep(m, vals, op)
	total := t.partial[0]
	gsz, d, q := t.gsz, t.d, t.q

	// Down-sweep: offsets flow from the root down the same tree, using the
	// up-sweep's snapshot partials as child subtree sums.
	offset := make([]int64, p)
	offset[0] = id
	for r := len(t.snaps) - 1; r >= 0; r-- {
		s := 1
		for i := 0; i < r; i++ {
			s *= d
		}
		snap := t.snaps[r]
		ss := s
		m.Superstep(func(c *bsp.Ctx) {
			i := c.ID()
			if i%gsz != 0 {
				return
			}
			li := i / gsz
			if li%(ss*d) != 0 {
				return
			}
			// Send each child its offset: base's offset plus the subtree
			// sums of earlier siblings (base's own subtree at this level
			// comes first).
			acc := offset[i]
			acc = op(acc, snap[i])
			slot := 0
			for j := 1; j < d; j++ {
				child := li + j*ss
				if child >= q {
					break
				}
				c.Charge(1)
				c.SendAt(slot, child*gsz, bsp.Msg{A: acc})
				slot++
				acc = op(acc, snap[child*gsz])
			}
		})
		for l := 0; l < p; l += gsz {
			li := l / gsz
			if li%ss == 0 && li%(ss*d) != 0 {
				if in := m.Inbox(l); len(in) > 0 {
					offset[l] = in[0].A
				}
			}
		}
	}

	// Leaders hand each member its offset within the group.
	if gsz > 1 {
		m.Superstep(func(c *bsp.Ctx) {
			l := c.ID()
			if l%gsz != 0 {
				return
			}
			acc := op(offset[l], t.members[l][0])
			for r := 1; r < gsz && l+r < p; r++ {
				c.Charge(1)
				c.SendAt(r-1, l+r, bsp.Msg{A: acc})
				acc = op(acc, t.members[l][r])
			}
		})
		for i := 0; i < p; i++ {
			if i%gsz != 0 {
				if in := m.Inbox(i); len(in) > 0 {
					offset[i] = in[0].A
				}
			}
		}
	}

	BroadcastBSP(m, 0, total)
	return offset, total
}

// ReduceBSPDegree reduces with an explicit tree fan-in (group size still
// chosen by the model), for the DESIGN.md combine-tree ablation: the τ term
// is L·log_d(m), minimized at d = L; smaller fan-ins pay more rounds.
func ReduceBSPDegree(m *bsp.Machine, vals []int64, op Op, degree int) int64 {
	if len(vals) != m.P() {
		panic("collective: ReduceBSPDegree needs one value per processor")
	}
	if degree < 2 {
		panic("collective: fan-in must be >= 2")
	}
	gsz, _ := bspReduceParams(m.Cost(), m.P())
	return bspUpsweepDeg(m, vals, op, gsz, degree).partial[0]
}
