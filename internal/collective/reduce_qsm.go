package collective

import (
	"fmt"

	"parbw/internal/model"
	"parbw/internal/qsm"
)

// qsmReduceParams returns the group size and tree fan-in for QSM reductions.
// QSM(g) uses no grouping and a binary tree (Θ(g·lg p)); QSM(m) gathers
// groups of ⌈p/m⌉ at m leaders and runs a binary tree over the leaders, for
// the paper's Θ(lg m + n/m) summation bound.
func qsmReduceParams(cost model.Cost, p int) (gsz, d int) {
	switch cost.Kind {
	case model.KindQSMg:
		return 1, 2
	case model.KindQSMm:
		mm := min(cost.Budget(p), p)
		return (p + mm - 1) / mm, 2
	default:
		panic(fmt.Sprintf("collective: QSM reduction on %v", cost.Kind))
	}
}

func qsmUpsweep(m *qsm.Machine, vals []int64, op Op) *reduceTree {
	qsmScratch(m)
	p := m.P()
	gsz, d := qsmReduceParams(m.Cost(), p)
	q := (p + gsz - 1) / gsz
	t := &reduceTree{gsz: gsz, d: d, q: q,
		partial: make([]int64, p),
		members: make([][]int64, p),
	}
	for i := range t.partial {
		t.partial[i] = vals[i]
	}
	bw := m.Cost().Budget(p)

	// Gather: every member publishes its value in its own cell (requests
	// spread bw per step), then each leader reads its members' cells.
	if gsz > 1 {
		m.Phase(func(c *qsm.Ctx) {
			i := c.ID()
			if i%gsz == 0 {
				return
			}
			c.WriteAt(i/bw, i, vals[i])
		})
		m.Phase(func(c *qsm.Ctx) {
			l := c.ID()
			if l%gsz != 0 {
				return
			}
			mem := make([]int64, gsz)
			mem[0] = vals[l]
			for r := 1; r < gsz && l+r < p; r++ {
				c.Charge(1)
				mem[r] = c.ReadAt(r-1, l+r)
			}
			t.members[l] = mem
			acc := mem[0]
			for r := 1; r < gsz && l+r < p; r++ {
				acc = op(acc, mem[r])
			}
			t.partial[l] = acc
		})
	}

	// Binary tree over leaders: children publish partials, bases read.
	for s := 1; s < q; s *= d {
		t.snaps = append(t.snaps, append([]int64(nil), t.partial...))
		ss := s
		m.Phase(func(c *qsm.Ctx) { // children publish
			i := c.ID()
			if i%gsz != 0 {
				return
			}
			li := i / gsz
			if li%ss != 0 || li%(ss*d) == 0 {
				return
			}
			c.WriteAt(li/bw, i, t.partial[i])
		})
		m.Phase(func(c *qsm.Ctx) { // bases read and fold
			i := c.ID()
			if i%gsz != 0 {
				return
			}
			li := i / gsz
			if li%(ss*d) != 0 {
				return
			}
			for j := 1; j < d; j++ {
				child := li + j*ss
				if child >= t.q {
					break
				}
				c.Charge(1)
				t.partial[i] = op(t.partial[i], c.ReadAt(j-1, child*gsz))
			}
		})
	}
	return t
}

// ReduceQSM reduces the per-processor values with op, leaving the result at
// processor 0 and returning it.
func ReduceQSM(m *qsm.Machine, vals []int64, op Op) int64 {
	if len(vals) != m.P() {
		panic("collective: ReduceQSM needs one value per processor")
	}
	return qsmUpsweep(m, vals, op).partial[0]
}

// SumAllQSM reduces with op and broadcasts the result to every processor,
// returning the total.
func SumAllQSM(m *qsm.Machine, vals []int64, op Op) int64 {
	total := ReduceQSM(m, vals, op)
	BroadcastQSM(m, 0, total)
	return total
}

// PrefixSumQSM computes the exclusive prefix reduction out[i] = op-fold of
// vals[0..i) with identity id, and returns it with the total (broadcast to
// all processors).
func PrefixSumQSM(m *qsm.Machine, vals []int64, op Op, id int64) ([]int64, int64) {
	p := m.P()
	if len(vals) != p {
		panic("collective: PrefixSumQSM needs one value per processor")
	}
	t := qsmUpsweep(m, vals, op)
	total := t.partial[0]
	gsz, d, q := t.gsz, t.d, t.q
	bw := m.Cost().Budget(p)

	offset := make([]int64, p)
	offset[0] = id
	// Down-sweep through scratch cells [p, 2p).
	for r := len(t.snaps) - 1; r >= 0; r-- {
		s := 1
		for i := 0; i < r; i++ {
			s *= d
		}
		snap := t.snaps[r]
		ss := s
		m.Phase(func(c *qsm.Ctx) { // bases publish child offsets
			i := c.ID()
			if i%gsz != 0 {
				return
			}
			li := i / gsz
			if li%(ss*d) != 0 {
				return
			}
			acc := op(offset[i], snap[i])
			for j := 1; j < d; j++ {
				child := li + j*ss
				if child >= q {
					break
				}
				c.Charge(1)
				c.WriteAt(j-1, p+child*gsz, acc)
				acc = op(acc, snap[child*gsz])
			}
		})
		m.Phase(func(c *qsm.Ctx) { // children read their offsets
			i := c.ID()
			if i%gsz != 0 {
				return
			}
			li := i / gsz
			if li%ss == 0 && li%(ss*d) != 0 {
				offset[i] = c.ReadAt(li/bw, p+i)
			}
		})
	}

	// Leaders hand member offsets through scratch cells.
	if gsz > 1 {
		m.Phase(func(c *qsm.Ctx) {
			l := c.ID()
			if l%gsz != 0 {
				return
			}
			acc := op(offset[l], t.members[l][0])
			for r := 1; r < gsz && l+r < p; r++ {
				c.Charge(1)
				c.WriteAt(r-1, p+l+r, acc)
				acc = op(acc, t.members[l][r])
			}
		})
		m.Phase(func(c *qsm.Ctx) {
			i := c.ID()
			if i%gsz == 0 {
				return
			}
			offset[i] = c.ReadAt(i/bw, p+i)
		})
	}

	BroadcastQSM(m, 0, total)
	return offset, total
}
