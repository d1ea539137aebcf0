package problems

import (
	"fmt"
	"slices"

	"parbw/internal/model"
	"parbw/internal/qsm"
	"parbw/internal/xrand"
)

// ColumnsortQSM sorts n keys (distributed blockwise over the p processors'
// private memories) on a QSM machine using the first q processors as
// sorters, returning the sorted keys blockwise. The machine needs
// Mem >= n (a transfer buffer region [0, n)); n, p, q must be powers of two
// with q <= min(n, p).
//
// Data movement goes through shared memory: for each oblivious permutation,
// holders write their keys into the buffer cells of the destination
// positions and the new owners read them in the next phase, with requests
// spread cyclically over a ⌊(1+ε)·moved/m⌋-step window on the QSM(m)
// (Theorem 6.2's schedule, which the paper notes carries over to the
// QSM(m)). This realizes the Table 1 row 5 bound Θ(n/m) for
// m = O(n^{1-ε}).
func ColumnsortQSM(m *qsm.Machine, keys []int64, q int) []int64 {
	p := m.P()
	n := len(keys)
	if n == 0 {
		return nil
	}
	if !isPow2(n) || !isPow2(p) || !isPow2(q) {
		panic("problems: ColumnsortQSM requires power-of-two n, p, q")
	}
	if q > p || q > n {
		panic(fmt.Sprintf("problems: q = %d must be <= min(n=%d, p=%d)", q, n, p))
	}
	if m.Mem() < n {
		panic("problems: ColumnsortQSM needs Mem >= n")
	}
	b := qsmBackend{m: m}
	identity := func(idx int) int { return idx }

	arr := make([]int64, n)
	b.move(keys, arr,
		func(idx int) int { return idx / max(n/p, 1) }, // input owner
		identity,
		func(pos int) int { return pos / (n / q) }) // sorter owner

	columnsortRec(b, arr, []span{{off: 0, cnt: n, procLo: 0, procN: q}})

	out := make([]int64, n)
	b.move(arr, out,
		func(idx int) int { return idx / (n / q) },
		identity,
		func(pos int) int { return pos / max(n/p, 1) })
	return out
}

// qsmBackend drives columnsort on a QSM machine.
type qsmBackend struct{ m *qsm.Machine }

// slotter assigns a processor's j-th shared-memory request of a phase to a
// step, mirroring Unbalanced-Send's cyclic schedule: a random start in a
// window of model.Period(total, m, ε) = max(⌊(1+ε)·total/m⌋, 1) steps (at
// least the processor's own request count, so its requests get distinct
// steps).
type slotter struct {
	period int
	start  int
}

func newSlotter(rng *xrand.Source, global bool, total, mine, mm int) slotter {
	if !global {
		return slotter{period: max(mine, 1)}
	}
	period := max(model.Period(total, mm, schedEps), mine)
	return slotter{period: period, start: rng.Intn(period)}
}

func (s slotter) slot(j int) int { return (s.start + j) % s.period }

// move places in[idx] at out[dstPos(idx)] for every idx: srcOwner(idx)
// writes buffer cell dstPos(idx), and posOwner(dstPos(idx)) reads it in the
// following phase. Same-owner values move locally (charged as work).
// dstPos must be injective.
func (b qsmBackend) move(in, out []int64, srcOwner, dstPos, posOwner func(int) int) {
	m := b.m
	p := m.P()
	global, mm := m.Cost().Global(), m.Cost().Budget(p)
	writes := make([][]int, p) // source indices each processor publishes
	reads := make([][]int, p)  // destination positions each processor reads
	locals := make([][]int, p) // same-owner source indices
	moved := 0
	for idx := range in {
		pos := dstPos(idx)
		s, d := srcOwner(idx), posOwner(pos)
		if s == d {
			locals[s] = append(locals[s], idx)
			continue
		}
		writes[s] = append(writes[s], idx)
		reads[d] = append(reads[d], pos)
		moved++
	}
	if moved > 0 {
		m.Phase(func(c *qsm.Ctx) {
			i := c.ID()
			sl := newSlotter(c.RNG(), global, moved, len(writes[i]), mm)
			for j, idx := range writes[i] {
				c.WriteAt(sl.slot(j), dstPos(idx), in[idx])
			}
		})
		m.Phase(func(c *qsm.Ctx) {
			i := c.ID()
			sl := newSlotter(c.RNG(), global, moved, len(reads[i]), mm)
			for j, pos := range reads[i] {
				out[pos] = c.ReadAt(sl.slot(j), pos)
			}
			for _, idx := range locals[i] {
				out[dstPos(idx)] = in[idx]
			}
			c.Charge(len(locals[i]))
		})
		return
	}
	// Fully local: one work-only phase.
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		for _, idx := range locals[i] {
			out[dstPos(idx)] = in[idx]
		}
		c.Charge(len(locals[i]))
	})
}

func (b qsmBackend) leafSort(arr []int64, spans []span) {
	b.m.Phase(func(c *qsm.Ctx) {
		for _, sp := range spans {
			if sp.procLo == c.ID() {
				slices.Sort(arr[sp.off : sp.off+sp.cnt])
				c.Charge(sp.cnt * bitsLen(sp.cnt))
			}
		}
	})
}

func (b qsmBackend) permute(arr []int64, spans []span, perm func(int) int) {
	next := make([]int64, len(arr))
	toOf := make([]int, len(arr))
	srcOwn := make([]int, len(arr))
	posOwn := make([]int, len(arr))
	for i := range toOf {
		toOf[i] = i
	}
	for _, sp := range spans {
		for k := 0; k < sp.cnt; k++ {
			from := sp.off + k
			to := sp.off + perm(k)
			toOf[from] = to
			srcOwn[from] = sp.ownerIn(from)
			posOwn[to] = sp.ownerIn(to)
		}
	}
	b.move(arr, next,
		func(idx int) int { return srcOwn[idx] },
		func(idx int) int { return toOf[idx] },
		func(pos int) int { return posOwn[pos] })
	copy(arr, next)
}

func (b qsmBackend) gatherSort(arr []int64, spans []span) {
	headOwner := make([]int, len(arr))
	realOwner := make([]int, len(arr))
	inSpan := make([]bool, len(arr))
	for _, sp := range spans {
		for k := 0; k < sp.cnt; k++ {
			pos := sp.off + k
			headOwner[pos] = sp.procLo
			realOwner[pos] = sp.ownerIn(pos)
			inSpan[pos] = true
		}
	}
	// Positions outside the spans (none in practice: spans tile the array
	// at every recursion level) stay owned by themselves.
	for pos := range inSpan {
		if !inSpan[pos] {
			headOwner[pos] = 0
			realOwner[pos] = 0
		}
	}
	identity := func(idx int) int { return idx }
	tmp := make([]int64, len(arr))
	b.move(arr, tmp,
		func(idx int) int { return realOwner[idx] },
		identity,
		func(pos int) int { return headOwner[pos] })
	b.m.Phase(func(c *qsm.Ctx) {
		for _, sp := range spans {
			if sp.procLo == c.ID() {
				slices.Sort(tmp[sp.off : sp.off+sp.cnt])
				c.Charge(sp.cnt * bitsLen(sp.cnt))
			}
		}
	})
	b.move(tmp, arr,
		func(idx int) int { return headOwner[idx] },
		identity,
		func(pos int) int { return realOwner[pos] })
}
