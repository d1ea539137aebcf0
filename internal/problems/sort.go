package problems

import (
	"fmt"
	"slices"

	"parbw/internal/bsp"
	"parbw/internal/sched"
)

// Sorting on bandwidth-limited machines (Table 1 row 5).
//
// The paper sorts n keys on the BSP(m)/QSM(m) in Θ(n/m) (+L) for
// m = O(n^{1-ε}) by routing the keys to a subset of the processors and
// running a deterministic adaptation of Leighton's columnsort [Adler, Byers
// & Karp, SPAA'95]. Columnsort is splitter-free: every data movement is a
// fixed oblivious permutation, so the routing steps are balanced h-relations
// that the Section 6 schedulers move in (1+ε)n/m time each, and no
// splitter-broadcast (which would cost p·s/m time) is needed — essential in
// the Table 1 setting where n = p and each processor holds a single key.
//
// ColumnsortBSP implements the recursive distributed columnsort: an r×s
// matrix (column-major, r = N/s rows, r >= 2(s-1)²) is sorted by the 8-step
// schedule sort/transpose/sort/untranspose/sort/shift/sort/unshift, where
// each column is owned by a uniform subgroup of processors and "sort each
// column" recurses on the subgroups (in lockstep, since every subgroup has
// identical shape) until single-processor columns are sorted locally.
// The shift steps use the cyclic-shift-by-r/2 formulation; the wrapped
// column is safe because after step 5 every element is within r/2 of its
// final position, so the smallest r/2 and largest r/2 elements cannot
// interleave.

// ColumnsortBSP sorts the n keys (distributed blockwise over the p
// processors) using the first q processors as sorters, and returns the
// sorted keys (redistributed blockwise). n, p and q must be powers of two
// with q <= min(n, p). The paper's Table 1 configuration uses
// q = min(m·lg n, n).
func ColumnsortBSP(m *bsp.Machine, keys []int64, q int) []int64 {
	p := m.P()
	n := len(keys)
	if n == 0 {
		return nil
	}
	if !isPow2(n) || !isPow2(p) || !isPow2(q) {
		panic("problems: ColumnsortBSP requires power-of-two n, p, q")
	}
	if q > p || q > n {
		panic(fmt.Sprintf("problems: q = %d must be <= min(n=%d, p=%d)", q, n, p))
	}

	arr := make([]int64, n)
	// Route input from blockwise-over-p to blockwise-over-q (sorter s owns
	// arr[s·n/q, (s+1)·n/q)). The permutation is oblivious, so the message
	// count is known a priori (KnownN).
	routeBSP(m, p, n, keys,
		func(idx int) int { return idx / max(n/p, 1) }, // input layout owner
		func(idx int) int { return idx / (n / q) },     // sorter layout owner
		arr)

	columnsortRec(bspBackend{m}, arr, []span{{off: 0, cnt: n, procLo: 0, procN: q}})

	// Route back to blockwise-over-p.
	out := make([]int64, n)
	routeBSP(m, p, n, arr,
		func(idx int) int { return idx / (n / q) },
		func(idx int) int { return idx / max(n/p, 1) },
		out)
	return out
}

// span is one uniform group at a recursion level: cnt keys at positions
// [off, off+cnt), owned by procN sorters starting at procLo (cnt/procN keys
// per sorter, contiguous).
type span struct {
	off, cnt      int
	procLo, procN int
}

// ownerIn returns the sorter owning position pos of the span.
func (s span) ownerIn(pos int) int {
	per := s.cnt / s.procN
	return s.procLo + (pos-s.off)/per
}

// sortBackend abstracts the machine-specific pieces of distributed
// columnsort: moving keys along an oblivious permutation, the degenerate
// gather-sort base case, and the single-processor local sort, so that the
// same recursion drives both the BSP and the QSM machines.
type sortBackend interface {
	permute(arr []int64, spans []span, perm func(int) int)
	gatherSort(arr []int64, spans []span)
	leafSort(arr []int64, spans []span)
}

// columnsortRec sorts every span's key range; all spans are identical in
// shape and proceed in lockstep.
func columnsortRec(m sortBackend, arr []int64, spans []span) {
	s0 := spans[0]
	if s0.procN == 1 {
		m.leafSort(arr, spans)
		return
	}

	cols := pickColumns(s0.cnt, s0.procN)
	if cols < 2 {
		m.gatherSort(arr, spans)
		return
	}
	r := s0.cnt / cols
	gsz := s0.procN / cols

	// Column c of a span is the sub-span at offset off + c·r with gsz procs.
	subSpans := func() []span {
		subs := make([]span, 0, len(spans)*cols)
		for _, sp := range spans {
			for c := 0; c < cols; c++ {
				subs = append(subs, span{
					off: sp.off + c*r, cnt: r,
					procLo: sp.procLo + c*gsz, procN: gsz,
				})
			}
		}
		return subs
	}

	sortCols := func() { columnsortRec(m, arr, subSpans()) }

	// Oblivious permutations of the 8-step schedule, as functions from a
	// span-relative position to its new span-relative position. Transpose
	// picks up entries in column-major order and sets them down row-major;
	// untranspose is its inverse. Shift is the cyclic shift by r/2; its
	// inverse folds in a half-rotation of the wrapped column 0, which after
	// sorting holds the globally smallest r/2 elements in its top half and
	// the globally largest r/2 in its bottom half (they cannot interleave
	// after step 5), destined for the two ends of the array.
	n := s0.cnt
	transpose := func(k int) int { return (k%cols)*r + k/cols }
	untranspose := func(k int) int { return (k%r)*cols + k/r }
	shift := func(k int) int { return (k + r/2) % n }
	unshift := func(k int) int {
		switch {
		case k < r/2:
			return k
		case k < r:
			return n - r + k
		default:
			return k - r/2
		}
	}

	sortCols()
	m.permute(arr, spans, transpose)
	sortCols()
	m.permute(arr, spans, untranspose)
	sortCols()
	m.permute(arr, spans, shift)
	sortCols()
	m.permute(arr, spans, unshift)
}

// Depth1Sorters returns the sorter count of a depth-1 columnsort of n keys
// on p processors: the largest power of two q <= min(n, p) with
// n/q >= 2(q-1)², so q ≈ (n/2)^{1/3} and the recursion constant stays fixed
// across a sweep.
func Depth1Sorters(n, p int) int { return pickColumns(n, min(n, p)) }

// pickColumns returns the largest power-of-two column count s with
// 2 <= s <= q and N/s >= 2(s-1)², or 1 if none exists.
func pickColumns(n, q int) int {
	best := 1
	for s := 2; s <= q; s *= 2 {
		r := n / s
		if r >= 2*(s-1)*(s-1) {
			best = s
		}
	}
	return best
}

// bspBackend drives columnsort on a BSP machine: permutations are scheduled
// unbalanced sends, local sorts are charged work.
type bspBackend struct{ m *bsp.Machine }

func (b bspBackend) leafSort(arr []int64, spans []span) {
	b.m.Superstep(func(c *bsp.Ctx) {
		for _, sp := range spans {
			if sp.procLo == c.ID() {
				slices.Sort(arr[sp.off : sp.off+sp.cnt])
				c.Charge(sp.cnt * bitsLen(sp.cnt))
			}
		}
	})
}

// permute moves arr contents along perm (span-relative) in every span,
// using a scheduled unbalanced send for the cross-processor moves and a
// zero-cost local pass for same-owner moves. perm must be a bijection on
// [0, cnt).
func (b bspBackend) permute(arr []int64, spans []span, perm func(int) int) {
	m := b.m
	p := m.P()
	plan := make(sched.Plan, p)
	next := make([]int64, len(arr))
	known := 0
	type localMove struct {
		to int
		v  int64
	}
	localWork := make([]int, p)
	locals := make([][]localMove, p)
	for _, sp := range spans {
		for k := 0; k < sp.cnt; k++ {
			from := sp.off + k
			to := sp.off + perm(k)
			src := sp.ownerIn(from)
			dst := sp.ownerIn(to)
			if src == dst {
				locals[src] = append(locals[src], localMove{to: to, v: arr[from]})
				localWork[src]++
				continue
			}
			plan[src] = append(plan[src], bsp.Msg{Dst: int32(dst), A: arr[from], B: int64(to)})
			known++
		}
	}
	if known > 0 {
		sched.UnbalancedSend(m, plan, sched.Options{KnownN: known})
	}
	// Apply receives and local moves; charge the per-processor work.
	m.Superstep(func(c *bsp.Ctx) {
		for _, mv := range locals[c.ID()] {
			next[mv.to] = mv.v
		}
		c.Charge(localWork[c.ID()])
		for _, msg := range c.Recv() {
			next[msg.B] = msg.A
			c.Charge(1)
		}
	})
	copy(arr, next)
}

// gatherSort is the degenerate base case for spans too small for any legal
// column shape: each span's keys are gathered at its first processor,
// sorted, and scattered back.
func (b bspBackend) gatherSort(arr []int64, spans []span) {
	m := b.m
	p := m.P()
	plan := make(sched.Plan, p)
	known := 0
	for _, sp := range spans {
		for k := 0; k < sp.cnt; k++ {
			pos := sp.off + k
			src := sp.ownerIn(pos)
			if src == sp.procLo {
				continue
			}
			plan[src] = append(plan[src], bsp.Msg{Dst: int32(sp.procLo), A: arr[pos], B: int64(pos)})
			known++
		}
	}
	if known > 0 {
		sched.UnbalancedSend(m, plan, sched.Options{KnownN: known})
	}
	m.Superstep(func(c *bsp.Ctx) {
		for _, msg := range c.Recv() {
			arr[msg.B] = msg.A
			c.Charge(1)
		}
	})
	// Sort each span at its head processor.
	m.Superstep(func(c *bsp.Ctx) {
		for _, sp := range spans {
			if sp.procLo == c.ID() {
				slices.Sort(arr[sp.off : sp.off+sp.cnt])
				c.Charge(sp.cnt * bitsLen(sp.cnt))
			}
		}
	})
	// Scatter back.
	plan2 := make(sched.Plan, p)
	known2 := 0
	for _, sp := range spans {
		for k := 0; k < sp.cnt; k++ {
			pos := sp.off + k
			dst := sp.ownerIn(pos)
			if dst == sp.procLo {
				continue
			}
			plan2[sp.procLo] = append(plan2[sp.procLo], bsp.Msg{Dst: int32(dst), A: arr[pos], B: int64(pos)})
			known2++
		}
	}
	if known2 > 0 {
		sched.UnbalancedSend(m, plan2, sched.Options{KnownN: known2})
	}
	m.Superstep(func(c *bsp.Ctx) {
		for _, msg := range c.Recv() {
			arr[msg.B] = msg.A
			c.Charge(1)
		}
	})
}

// routeBSP moves n keys from layout srcOwner to layout dstOwner through a
// scheduled send and writes them into out (same global indexing).
func routeBSP(m *bsp.Machine, p, n int, in []int64,
	srcOwner, dstOwner func(int) int, out []int64) {
	plan := make(sched.Plan, p)
	known := 0
	type localMove struct {
		to int
		v  int64
	}
	locals := make([][]localMove, p)
	for idx := 0; idx < n; idx++ {
		src, dst := srcOwner(idx), dstOwner(idx)
		if src == dst {
			locals[src] = append(locals[src], localMove{to: idx, v: in[idx]})
			continue
		}
		plan[src] = append(plan[src], bsp.Msg{Dst: int32(dst), A: in[idx], B: int64(idx)})
		known++
	}
	if known > 0 {
		sched.UnbalancedSend(m, plan, sched.Options{KnownN: known})
	}
	m.Superstep(func(c *bsp.Ctx) {
		for _, mv := range locals[c.ID()] {
			out[mv.to] = mv.v
		}
		c.Charge(len(locals[c.ID()]))
		for _, msg := range c.Recv() {
			out[msg.B] = msg.A
			c.Charge(1)
		}
	})
}

// IsSorted reports whether xs is non-decreasing.
func IsSorted(xs []int64) bool {
	return slices.IsSorted(xs)
}

func isPow2(x int) bool { return x > 0 && x&(x-1) == 0 }
