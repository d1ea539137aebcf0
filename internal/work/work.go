// Package work defines the repository's canonical workload IR: one typed
// representation that every workload producer lowers into and every consumer
// executes from. An IR is a sequence of typed supersteps — per-processor
// compute work plus slot-scheduled sends — over a declared machine shape,
// with an optional precedence layer recording the computational DAG a
// schedule was lowered from.
//
// The IR is the one workload type for generated and serialized traffic:
// workgen families emit it, the fuzzing corpus stores it, the oracle
// invariants and the shrinker take it, harness bodies assemble it through
// Builder, and work/dagsched lowers computational DAGs into it. The
// schedulers read one superstep's traffic as per-processor message rows
// (Rows, the sched.Plan shape) and replay explicit slot schedules verbatim
// (sched.ReplayAll).
//
// The IR encodes byte-stably: compact JSON in struct declaration order,
// newline-terminated, so identical IRs encode to identical bytes on every
// platform.
package work

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"parbw/internal/bsp"
)

// Version is the IR format version stamped into every encoded IR. Bump it
// when the encoding changes incompatibly; Decode rejects unknown versions.
const Version = 1

// Hard resource caps enforced by Validate so adversarial or corrupted input
// (fuzz corpus entries, generator pins) cannot allocate an unbounded
// machine.
const (
	MaxP          = 1 << 10
	MaxSteps      = 1 << 6
	MaxSendsTotal = 1 << 16
	MaxSlot       = 1 << 20
	MaxMsgLen     = 1 << 8
)

// Send is one slot-scheduled injection: processor Proc injects a message of
// Len flits to Dst with its first flit entering the network at slot Slot.
// Len <= 1 occupies one slot, mirroring bsp.Msg.Flits. Tag/A/B/C carry the
// algorithm payload of plan-style messages so Rows hands the schedulers the
// exact messages a Builder recorded; generated workloads leave them zero.
type Send struct {
	Proc int   `json:"proc"`
	Slot int   `json:"slot"`
	Dst  int   `json:"dst"`
	Len  int   `json:"len,omitempty"`
	Tag  uint8 `json:"tag,omitempty"`
	A    int64 `json:"a,omitempty"`
	B    int64 `json:"b,omitempty"`
	C    int64 `json:"c,omitempty"`
}

// Flits returns the number of injection slots the send occupies (>= 1 for
// any non-negative Len, mirroring bsp.Msg.Flits).
func (s Send) Flits() int {
	if s.Len <= 1 {
		return 1
	}
	return s.Len
}

// Msg converts the send into the engine's message type (Src is filled by
// the engine at injection time).
func (s Send) Msg() bsp.Msg {
	return bsp.Msg{Dst: int32(s.Dst), Tag: s.Tag, Len: int32(s.Len), A: s.A, B: s.B, C: s.C}
}

// Step is one typed superstep: optional per-processor compute work plus the
// slot-scheduled sends injected during the communication phase.
type Step struct {
	// Work[i] is the compute work charged to processor i before the
	// communication phase; nil or short means zero. len(Work) must not
	// exceed the IR's P.
	Work  []int64 `json:"work,omitempty"`
	Sends []Send  `json:"sends"`
}

// Prec is the optional precedence layer: the computational DAG a schedule
// was lowered from. Node i is placed on processor Proc[i] and computed in
// compute phase Step[i]; compute phase t runs before communication
// superstep t, so a node with Step[i] == len(ir.Steps) computes after the
// final communication phase. Every edge (u, v) requires Step[u] < Step[v],
// and a cross-processor edge requires a message from Proc[u] to Proc[v] in
// some communication superstep t with Step[u] <= t < Step[v] — the
// precedence invariant the oracle replays.
type Prec struct {
	Proc  []int    `json:"proc"`
	Step  []int    `json:"step"`
	Edges [][2]int `json:"edges"`
}

// Nodes returns the number of DAG nodes the layer records.
func (pr *Prec) Nodes() int { return len(pr.Proc) }

// Clone returns a deep copy of the layer.
func (pr *Prec) Clone() *Prec {
	if pr == nil {
		return nil
	}
	return &Prec{
		Proc:  append([]int(nil), pr.Proc...),
		Step:  append([]int(nil), pr.Step...),
		Edges: append([][2]int(nil), pr.Edges...),
	}
}

// IR is the canonical workload: a machine shape, typed supersteps, an
// optional precedence layer, and declared traffic totals. Fields are
// exported and JSON-tagged in declaration order; encoding/json preserves
// that order, making Encode byte-stable.
type IR struct {
	Version int    `json:"version"`
	Family  string `json:"family"` // provenance label (workgen family, "dag", ...)
	Seed    uint64 `json:"seed"`
	P       int    `json:"p"`
	M       int    `json:"m"`
	L       int    `json:"l"`
	Steps   []Step `json:"steps"`
	Prec    *Prec  `json:"prec,omitempty"`

	// Declared totals, written by the producer. Consumers that audit
	// workloads (the oracle's conservation invariant) recompute both from
	// the sends and flag disagreement; Validate deliberately does not
	// cross-check them, so lying-totals counterexamples stay representable.
	TotalSends int `json:"total_sends"`
	TotalFlits int `json:"total_flits"`
}

// Encode returns the canonical byte encoding of the IR: compact JSON in
// struct declaration order, terminated by a newline.
func (ir *IR) Encode() ([]byte, error) {
	b, err := json.Marshal(ir)
	if err != nil {
		return nil, fmt.Errorf("work: encode: %w", err)
	}
	return append(b, '\n'), nil
}

// Decode parses an encoded IR. It validates only JSON well-formedness and
// the format version; run Validate before driving the IR through a machine.
func Decode(data []byte) (*IR, error) {
	var ir IR
	if err := json.Unmarshal(data, &ir); err != nil {
		return nil, fmt.Errorf("work: decode: %w", err)
	}
	if ir.Version != Version {
		return nil, fmt.Errorf("work: unsupported IR version %d (have %d)", ir.Version, Version)
	}
	return &ir, nil
}

// Error reports why an IR failed validation. Step is the offending
// superstep and Index the offending send within it; both are -1 for shape,
// work, or precedence errors with no single offending send.
type Error struct {
	Step   int
	Index  int
	Reason string
}

func (e *Error) Error() string { return "work: " + e.Reason }

func shapeErr(format string, args ...any) error {
	return &Error{Step: -1, Index: -1, Reason: fmt.Sprintf(format, args...)}
}

// Validate checks that the IR is structurally sound and small enough to
// simulate — everything the engines would panic on is rejected with a
// clean error instead: machine shape in range, step/send counts under
// the resource caps, every send's endpoints inside the machine with
// non-negative slot and length, no processor injecting two flits in the
// same slot (multi-flit spans included), work vectors no longer than P with
// non-negative entries, and — when a precedence layer is present — every
// node placed inside the machine and the step range with every edge
// strictly forward in time. It never panics, whatever the input.
func (ir *IR) Validate() error {
	if ir.Version != Version {
		return shapeErr("unsupported IR version %d", ir.Version)
	}
	if ir.P < 1 || ir.P > MaxP {
		return shapeErr("p=%d out of range [1, %d]", ir.P, MaxP)
	}
	if ir.M < 1 || ir.M > ir.P {
		return shapeErr("m=%d out of range [1, p=%d]", ir.M, ir.P)
	}
	// The BSP cost models require L >= 1.
	if ir.L < 1 || ir.L > MaxSlot {
		return shapeErr("l=%d out of range [1, %d]", ir.L, MaxSlot)
	}
	if len(ir.Steps) > MaxSteps {
		return shapeErr("%d supersteps exceeds cap %d", len(ir.Steps), MaxSteps)
	}
	total := 0
	for si := range ir.Steps {
		step := &ir.Steps[si]
		if len(step.Work) > ir.P {
			return shapeErr("superstep %d: work vector has %d entries for p=%d", si, len(step.Work), ir.P)
		}
		for i, wu := range step.Work {
			if wu < 0 {
				return shapeErr("superstep %d: proc %d has negative work %d", si, i, wu)
			}
		}
		total += len(step.Sends)
		if total > MaxSendsTotal {
			return shapeErr("more than %d sends total", MaxSendsTotal)
		}
		if err := checkStepSends(ir.P, si, step.Sends); err != nil {
			return err
		}
	}
	return checkPrec(ir.P, len(ir.Steps), ir.Prec)
}

// checkStepSends validates one superstep's sends: endpoint ranges, slot and
// length signs, the resource caps, and the per-processor overlap sweep —
// the error-returning analogue of the engine's injection validation. Sends
// by distinct processors may share a slot; that is contention, which the
// models price rather than forbid.
func checkStepSends(p, si int, sends []Send) error {
	for i, s := range sends {
		if s.Proc < 0 || s.Proc >= p {
			return &Error{Step: si, Index: i,
				Reason: fmt.Sprintf("superstep %d: send %d from invalid proc %d (p=%d)", si, i, s.Proc, p)}
		}
		if s.Dst < 0 || s.Dst >= p {
			return &Error{Step: si, Index: i,
				Reason: fmt.Sprintf("superstep %d: proc %d send %d to invalid dst %d (p=%d)", si, s.Proc, i, s.Dst, p)}
		}
		if s.Slot < 0 {
			return &Error{Step: si, Index: i,
				Reason: fmt.Sprintf("superstep %d: proc %d send %d at negative slot %d", si, s.Proc, i, s.Slot)}
		}
		if s.Slot > MaxSlot {
			return &Error{Step: si, Index: i,
				Reason: fmt.Sprintf("superstep %d: slot %d exceeds cap %d", si, s.Slot, MaxSlot)}
		}
		if s.Len < 0 {
			return &Error{Step: si, Index: i,
				Reason: fmt.Sprintf("superstep %d: proc %d send %d has negative length %d", si, s.Proc, i, s.Len)}
		}
		if s.Len > MaxMsgLen {
			return &Error{Step: si, Index: i,
				Reason: fmt.Sprintf("superstep %d: len %d exceeds cap %d", si, s.Len, MaxMsgLen)}
		}
	}
	// Overlap check per processor: sort (proc, slot) keys and sweep.
	order := make([]int, len(sends))
	for i := range order {
		order[i] = i
	}
	sortByProcSlot(order, sends)
	prevProc, prevEnd := -1, 0
	for _, i := range order {
		s := sends[i]
		if s.Proc == prevProc && s.Slot < prevEnd {
			return &Error{Step: si, Index: i,
				Reason: fmt.Sprintf("superstep %d: proc %d injects two flits in slot %d", si, s.Proc, s.Slot)}
		}
		prevProc, prevEnd = s.Proc, s.Slot+s.Flits()
	}
	return nil
}

// sortByProcSlot stable-sorts the index slice by (Proc, Slot), so of two
// sends at the same (Proc, Slot) Validate reports the later one in input
// order. O(n log n): one step may carry MaxSendsTotal untrusted sends.
func sortByProcSlot(order []int, sends []Send) {
	slices.SortStableFunc(order, func(a, b int) int {
		if c := cmp.Compare(sends[a].Proc, sends[b].Proc); c != 0 {
			return c
		}
		return cmp.Compare(sends[a].Slot, sends[b].Slot)
	})
}

// checkPrec validates a precedence layer against a machine of p processors
// and nsteps communication supersteps (nil is valid: no layer). Node step
// indices may equal nsteps — the compute phase after the final
// communication superstep.
func checkPrec(p, nsteps int, pr *Prec) error {
	if pr == nil {
		return nil
	}
	if len(pr.Step) != len(pr.Proc) {
		return shapeErr("prec: %d node procs but %d node steps", len(pr.Proc), len(pr.Step))
	}
	n := len(pr.Proc)
	if n > MaxSendsTotal {
		return shapeErr("prec: %d nodes exceeds cap %d", n, MaxSendsTotal)
	}
	if len(pr.Edges) > MaxSendsTotal {
		return shapeErr("prec: %d edges exceeds cap %d", len(pr.Edges), MaxSendsTotal)
	}
	for i := 0; i < n; i++ {
		if pr.Proc[i] < 0 || pr.Proc[i] >= p {
			return shapeErr("prec: node %d on invalid proc %d (p=%d)", i, pr.Proc[i], p)
		}
		if pr.Step[i] < 0 || pr.Step[i] > nsteps {
			return shapeErr("prec: node %d in invalid step %d (steps=%d)", i, pr.Step[i], nsteps)
		}
	}
	for ei, e := range pr.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return shapeErr("prec: edge %d (%d -> %d) outside %d nodes", ei, u, v, n)
		}
		if pr.Step[u] >= pr.Step[v] {
			return shapeErr("prec: edge %d (%d -> %d) not forward in time: step %d >= %d",
				ei, u, v, pr.Step[u], pr.Step[v])
		}
	}
	return nil
}

// CountSends returns the actual (sends, flits) totals recomputed from the
// step data, ignoring the declared TotalSends/TotalFlits.
func (ir *IR) CountSends() (sends, flits int) {
	for si := range ir.Steps {
		sends += len(ir.Steps[si].Sends)
		for _, s := range ir.Steps[si].Sends {
			flits += s.Flits()
		}
	}
	return sends, flits
}

// SealTotals stamps the declared totals from the actual step data.
func (ir *IR) SealTotals() {
	ir.TotalSends, ir.TotalFlits = ir.CountSends()
}

// Hist returns the per-slot injection histogram of one superstep: hist[t]
// is the number of flits entering the network at slot t — the m_t the cost
// models price.
func (ir *IR) Hist(step int) []int {
	maxEnd := 0
	for _, s := range ir.Steps[step].Sends {
		if end := s.Slot + s.Flits(); end > maxEnd {
			maxEnd = end
		}
	}
	hist := make([]int, maxEnd)
	for _, s := range ir.Steps[step].Sends {
		for f := 0; f < s.Flits(); f++ {
			hist[s.Slot+f]++
		}
	}
	return hist
}

// ByProc groups one superstep's sends by processor with a counting sort:
// processor i's sends are Sends[order[off[i]:off[i+1]]], in stored order,
// and off has length P+1.
func (ir *IR) ByProc(step int) (off, order []int) {
	sends := ir.Steps[step].Sends
	off = make([]int, ir.P+1)
	for i := range sends {
		off[sends[i].Proc+1]++
	}
	for i := range ir.P {
		off[i+1] += off[i]
	}
	next := append([]int(nil), off[:ir.P]...)
	order = make([]int, len(sends))
	for i := range sends {
		order[next[sends[i].Proc]] = i
		next[sends[i].Proc]++
	}
	return off, order
}

// Rows projects one superstep into per-processor message rows — the
// sched.Plan shape, slots dropped (the randomized schedulers choose their
// own). Messages keep their stored order within each processor's row.
func (ir *IR) Rows(step int) [][]bsp.Msg {
	rows := make([][]bsp.Msg, ir.P)
	for _, s := range ir.Steps[step].Sends {
		rows[s.Proc] = append(rows[s.Proc], s.Msg())
	}
	return rows
}

// Clone returns a deep copy of the IR.
func (ir *IR) Clone() *IR {
	out := *ir
	out.Steps = make([]Step, len(ir.Steps))
	for i, st := range ir.Steps {
		out.Steps[i].Work = append([]int64(nil), st.Work...)
		out.Steps[i].Sends = append([]Send(nil), st.Sends...)
	}
	out.Prec = ir.Prec.Clone()
	return &out
}
