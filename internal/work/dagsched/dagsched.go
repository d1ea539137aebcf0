// Package dagsched lowers computational DAGs to BSP supersteps in the work
// IR — the frontend "DAG Scheduling in the BSP Model" (Papp et al.,
// PAPERS.md) motivates. A DAG node is a unit of compute work; an edge (u, v)
// means v consumes u's output, so if u and v land on different processors
// the lowered schedule must carry a message from u's processor to v's
// strictly between their compute phases. The lowering discipline here is
// level-synchronous: nodes are banded into levels by longest path from a
// source, level t computes in phase t, and every cross-processor edge out of
// level t is sent in communication superstep t — the earliest superstep the
// precedence invariant admits, so the result validates by construction.
//
// Two placement policies are provided. LevelSchedule balances work within
// each level greedily (least-loaded processor first) and ignores
// communication. CommAwareSchedule additionally pulls nodes toward the
// processor holding the plurality of their predecessors, under a per-level
// load cap, trading a little compute balance for fewer cross-processor
// edges; combined with Lower's Batch option (coalescing all flits between a
// processor pair at a superstep into one message) it models the
// message-combining optimization BSP folklore recommends. The two policies
// price differently under BSP(g) vs BSP(m) — that comparison is the
// dag/lower and dag/comm experiments.
package dagsched

import (
	"fmt"
	"sort"

	"parbw/internal/work"
)

// Node is one unit of the computational DAG.
type Node struct {
	Work int64 // compute cost charged when the node runs
}

// Edge is a data dependency: V consumes U's output of Len flits (Len <= 1
// counts as one flit, like messages).
type Edge struct {
	U, V int
	Len  int
}

// DAG is a computational DAG. Edges must be acyclic; Check verifies.
type DAG struct {
	Nodes []Node
	Edges []Edge
}

// Check validates the DAG shape: edge endpoints in range, no self-loops,
// acyclic, node/edge counts under the work IR resource caps.
func (d *DAG) Check() error {
	n := len(d.Nodes)
	if n == 0 {
		return fmt.Errorf("dagsched: empty DAG")
	}
	if n > work.MaxSendsTotal {
		return fmt.Errorf("dagsched: %d nodes exceeds cap %d", n, work.MaxSendsTotal)
	}
	if len(d.Edges) > work.MaxSendsTotal {
		return fmt.Errorf("dagsched: %d edges exceeds cap %d", len(d.Edges), work.MaxSendsTotal)
	}
	for i, e := range d.Edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("dagsched: edge %d (%d -> %d) outside %d nodes", i, e.U, e.V, n)
		}
		if e.U == e.V {
			return fmt.Errorf("dagsched: edge %d is a self-loop on node %d", i, e.U)
		}
		if e.Len < 0 || e.Len > work.MaxMsgLen {
			return fmt.Errorf("dagsched: edge %d length %d out of range [0, %d]", i, e.Len, work.MaxMsgLen)
		}
	}
	if _, err := d.Levels(); err != nil {
		return err
	}
	return nil
}

// Levels bands nodes by longest path from a source: level[v] =
// 1 + max(level[u]) over edges (u, v), sources at level 0. Errors if the
// edge list has a cycle.
func (d *DAG) Levels() ([]int, error) {
	n := len(d.Nodes)
	indeg := make([]int, n)
	out := make([][]int, n)
	for ei, e := range d.Edges {
		indeg[e.V]++
		out[e.U] = append(out[e.U], ei)
	}
	level := make([]int, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		seen++
		for _, ei := range out[u] {
			v := d.Edges[ei].V
			if lv := level[u] + 1; lv > level[v] {
				level[v] = lv
			}
			if indeg[v]--; indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if seen != n {
		return nil, fmt.Errorf("dagsched: DAG has a cycle (%d of %d nodes reachable)", seen, n)
	}
	return level, nil
}

// Depth returns the number of levels (longest path length + 1).
func Depth(levels []int) int {
	max := -1
	for _, lv := range levels {
		if lv > max {
			max = lv
		}
	}
	return max + 1
}

// Placement maps each node to a processor.
type Placement []int

// LevelSchedule places nodes level by level onto the least-work-loaded
// processor (ties broken by lowest processor id), balancing compute within
// each level and ignoring communication entirely. Deterministic: nodes
// within a level are visited in index order.
func LevelSchedule(d *DAG, levels []int, p int) Placement {
	place := make(Placement, len(d.Nodes))
	byLevel := nodesByLevel(levels)
	for _, nodes := range byLevel {
		load := make([]int64, p)
		for _, v := range nodes {
			place[v] = leastLoaded(load)
			load[place[v]] += d.Nodes[v].Work
		}
	}
	return place
}

// CommAwareSchedule places nodes level by level like LevelSchedule, but
// each node first tries the processor holding the plurality of its
// predecessors' outputs (by edge flits), accepting it unless that processor
// already carries more than capFactor times the level's mean work — in
// which case it falls back to the least-loaded processor. capFactor <= 1
// degenerates to LevelSchedule; 2 is a reasonable default.
func CommAwareSchedule(d *DAG, levels []int, p int, capFactor float64) Placement {
	place := make(Placement, len(d.Nodes))
	in := make([][]int, len(d.Nodes))
	for ei, e := range d.Edges {
		in[e.V] = append(in[e.V], ei)
	}
	byLevel := nodesByLevel(levels)
	for _, nodes := range byLevel {
		var levelWork int64
		for _, v := range nodes {
			levelWork += d.Nodes[v].Work
		}
		// Per-processor budget for this level: capFactor × mean share,
		// and always at least one node's worth of headroom.
		budget := int64(capFactor * float64(levelWork) / float64(p))
		load := make([]int64, p)
		for _, v := range nodes {
			choice := -1
			if pref := preferredProc(d, in[v], place, p); pref >= 0 && load[pref]+d.Nodes[v].Work <= max(budget, d.Nodes[v].Work) {
				choice = pref
			}
			if choice < 0 {
				choice = leastLoaded(load)
			}
			place[v] = choice
			load[choice] += d.Nodes[v].Work
		}
	}
	return place
}

// preferredProc returns the processor receiving the most predecessor flits
// for node v (-1 if v has no predecessors). Ties break to the lowest
// processor id.
func preferredProc(d *DAG, inEdges []int, place Placement, p int) int {
	if len(inEdges) == 0 {
		return -1
	}
	flits := make([]int, p)
	for _, ei := range inEdges {
		e := d.Edges[ei]
		f := e.Len
		if f <= 1 {
			f = 1
		}
		flits[place[e.U]] += f
	}
	best := 0
	for i := 1; i < p; i++ {
		if flits[i] > flits[best] {
			best = i
		}
	}
	return best
}

func nodesByLevel(levels []int) [][]int {
	depth := Depth(levels)
	byLevel := make([][]int, depth)
	for v, lv := range levels {
		byLevel[lv] = append(byLevel[lv], v)
	}
	return byLevel
}

func leastLoaded(load []int64) int {
	best := 0
	for i := 1; i < len(load); i++ {
		if load[i] < load[best] {
			best = i
		}
	}
	return best
}

// Options tunes Lower.
type Options struct {
	// Batch coalesces all cross-processor edge flits between the same
	// (source proc, dest proc) pair at a superstep into one message —
	// message combining. Unbatched, every cross edge is its own message.
	Batch bool
}

// Lower compiles (DAG, placement) into a work.IR for a p-processor machine
// with bandwidth parameter m and latency l. Level t's nodes compute in
// phase t (work charged to their processors in superstep t); every
// cross-processor edge out of level t is sent in communication superstep t,
// the earliest the precedence layer admits. Same-processor edges cost
// nothing. Slots pack densely per processor in a deterministic order
// (edges sorted by destination processor, then edge index). The returned
// IR carries the full precedence layer and validates by construction.
func Lower(d *DAG, levels []int, place Placement, p, m, l int, opt Options) (*work.IR, error) {
	if len(place) != len(d.Nodes) {
		return nil, fmt.Errorf("dagsched: placement covers %d of %d nodes", len(place), len(d.Nodes))
	}
	for v, proc := range place {
		if proc < 0 || proc >= p {
			return nil, fmt.Errorf("dagsched: node %d placed on invalid proc %d (p=%d)", v, proc, p)
		}
	}
	depth := Depth(levels)
	if depth > work.MaxSteps {
		return nil, fmt.Errorf("dagsched: depth %d exceeds superstep cap %d", depth, work.MaxSteps)
	}

	ir := &work.IR{Version: work.Version, Family: "dag", P: p, M: m, L: l,
		Steps: make([]work.Step, depth)}

	// Compute phases: level t's work lands in superstep t's Work vector.
	for v, lv := range levels {
		st := &ir.Steps[lv]
		if st.Work == nil {
			st.Work = make([]int64, p)
		}
		st.Work[place[v]] += d.Nodes[v].Work
	}

	// Communication: group cross-processor edges by source level.
	type xfer struct {
		src, dst int // processors
		flits    int
		edge     int // original edge index, for deterministic order
	}
	bySuper := make([][]xfer, depth)
	for ei, e := range d.Edges {
		su, sv := place[e.U], place[e.V]
		if su == sv {
			continue
		}
		f := e.Len
		if f <= 1 {
			f = 1
		}
		bySuper[levels[e.U]] = append(bySuper[levels[e.U]], xfer{src: su, dst: sv, flits: f, edge: ei})
	}
	for t, xs := range bySuper {
		sort.Slice(xs, func(i, j int) bool {
			if xs[i].src != xs[j].src {
				return xs[i].src < xs[j].src
			}
			if xs[i].dst != xs[j].dst {
				return xs[i].dst < xs[j].dst
			}
			return xs[i].edge < xs[j].edge
		})
		next := make([]int, p) // per-proc slot cursor
		if opt.Batch {
			for i := 0; i < len(xs); {
				j := i
				flits := 0
				for j < len(xs) && xs[j].src == xs[i].src && xs[j].dst == xs[i].dst {
					flits += xs[j].flits
					j++
				}
				appendSend(&ir.Steps[t], next, xs[i].src, xs[i].dst, flits)
				i = j
			}
		} else {
			for _, x := range xs {
				appendSend(&ir.Steps[t], next, x.src, x.dst, x.flits)
			}
		}
	}

	// Precedence layer: the full DAG, nodes at their compute phases.
	pr := &work.Prec{Proc: make([]int, len(d.Nodes)), Step: append([]int(nil), levels...),
		Edges: make([][2]int, len(d.Edges))}
	copy(pr.Proc, place)
	for ei, e := range d.Edges {
		pr.Edges[ei] = [2]int{e.U, e.V}
	}
	ir.Prec = pr

	ir.SealTotals()
	if err := ir.Validate(); err != nil {
		return nil, fmt.Errorf("dagsched: lowered IR invalid: %w", err)
	}
	return ir, nil
}

// appendSend packs one message densely at the processor's cursor. Batching
// can exceed MaxMsgLen when many edges coalesce; the message is split into
// cap-sized chunks so the IR stays valid.
func appendSend(st *work.Step, next []int, src, dst, flits int) {
	for flits > 0 {
		n := flits
		if n > work.MaxMsgLen {
			n = work.MaxMsgLen
		}
		s := work.Send{Proc: src, Slot: next[src], Dst: dst, Len: n}
		st.Sends = append(st.Sends, s)
		next[src] = s.Slot + s.Flits()
		flits -= n
	}
}

// CrossEdges counts the cross-processor edges and flits a placement induces
// — the communication volume the two policies compete on.
func CrossEdges(d *DAG, place Placement) (edges, flits int) {
	for _, e := range d.Edges {
		if place[e.U] == place[e.V] {
			continue
		}
		edges++
		if e.Len <= 1 {
			flits++
		} else {
			flits += e.Len
		}
	}
	return edges, flits
}
