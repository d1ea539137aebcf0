// Package shrink reduces failing fuzz workloads to minimal counterexamples
// with ddmin-style delta debugging (Zeller & Hildebrandt). Minimization
// walks coarse-to-fine over the workload's structure — drop whole
// supersteps, drop individual messages, shrink slot values, shrink message
// lengths, shrink the machine shape — re-running the caller's failure
// predicate on every candidate and keeping a change only if the failure
// persists.
//
// Determinism is re-checked at every step: each candidate is evaluated
// twice and a candidate whose two evaluations disagree is discarded (and
// counted), so a flaky predicate can slow shrinking down but can never
// smuggle a nondeterministic "counterexample" into the corpus.
package shrink

import "parbw/internal/work"

// Options bounds a minimization run.
type Options struct {
	// MaxEvals caps the number of predicate evaluations (each candidate
	// costs two, for the determinism double-check). 0 selects 4096.
	MaxEvals int
}

func (o Options) maxEvals() int {
	if o.MaxEvals <= 0 {
		return 4096
	}
	return o.MaxEvals
}

// Result reports a completed minimization.
type Result struct {
	// Workload is the minimal failing workload found (never nil; at worst
	// the input itself).
	Workload *work.IR
	// Evals is the number of predicate evaluations spent.
	Evals int
	// Nondeterministic counts candidates discarded because the predicate
	// disagreed with itself — nonzero means the failure is not a function
	// of the workload alone and the shrunk result deserves suspicion.
	Nondeterministic int
	// StepsBefore/After and SendsBefore/After summarize the reduction.
	StepsBefore, StepsAfter int
	SendsBefore, SendsAfter int
}

// minimizer carries the shared evaluation state through the phases.
type minimizer struct {
	failing    func(*work.IR) bool
	budget     int
	evals      int
	nondet     int
	deltaSends int // declared-minus-actual totals of the input, preserved
	deltaFlits int // so lying-totals failures survive renormalization
}

// Minimize reduces w to a locally minimal workload for which failing still
// returns true. failing must be a pure function of the workload (run the
// oracles, compare violation names); Minimize evaluates it twice per
// candidate and rejects candidates it is not deterministic on. The input
// workload is not modified. If failing(w) is false to begin with, the
// input is returned unchanged.
//
// Candidates keep the input's declared-totals discrepancy: totals are
// recomputed after every structural edit and the input's declared-actual
// delta is re-applied, so both honest workloads and lying-totals
// counterexamples shrink without the renormalization erasing the bug.
func Minimize(w *work.IR, failing func(*work.IR) bool, opt Options) Result {
	m := &minimizer{failing: failing, budget: opt.maxEvals()}
	sends, flits := w.CountSends()
	m.deltaSends = w.TotalSends - sends
	m.deltaFlits = w.TotalFlits - flits

	res := Result{StepsBefore: len(w.Steps), SendsBefore: sends}
	cur := w.Clone()
	if !m.check(cur) {
		res.Workload = cur
		res.Evals = m.evals
		res.Nondeterministic = m.nondet
		res.StepsAfter, res.SendsAfter = len(cur.Steps), sends
		return res
	}

	cur = m.shrinkPrec(cur)
	cur = m.shrinkSupersteps(cur)
	cur = m.shrinkSends(cur)
	cur = m.shrinkSlots(cur)
	cur = m.shrinkLens(cur)
	cur = m.shrinkShape(cur)

	res.Workload = cur
	res.Evals = m.evals
	res.Nondeterministic = m.nondet
	res.StepsAfter = len(cur.Steps)
	res.SendsAfter, _ = cur.CountSends()
	return res
}

// check evaluates the predicate twice on a renormalized candidate,
// spending budget; true only if both evaluations agree the candidate
// fails.
func (m *minimizer) check(w *work.IR) bool {
	if m.evals+2 > m.budget {
		return false
	}
	m.renormalize(w)
	m.evals += 2
	a := m.failing(w)
	b := m.failing(w)
	if a != b {
		m.nondet++
		return false
	}
	return a
}

// renormalize recomputes the declared totals, preserving the input's
// declared-vs-actual delta.
func (m *minimizer) renormalize(w *work.IR) {
	sends, flits := w.CountSends()
	w.TotalSends = sends + m.deltaSends
	w.TotalFlits = flits + m.deltaFlits
}

// ddmin is the classic minimizing delta debugger over a list: it returns a
// sublist, locally 1-minimal under the budget, for which test still
// fails. test receives a candidate sublist and must not retain it.
func ddmin[T any](items []T, test func([]T) bool) []T {
	n := 2
	for len(items) >= 2 && n <= len(items) {
		chunk := (len(items) + n - 1) / n
		reduced := false
		for start := 0; start < len(items); start += chunk {
			end := start + chunk
			if end > len(items) {
				end = len(items)
			}
			cand := make([]T, 0, len(items)-(end-start))
			cand = append(cand, items[:start]...)
			cand = append(cand, items[end:]...)
			if test(cand) {
				items = cand
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n == len(items) {
				break
			}
			n *= 2
			if n > len(items) {
				n = len(items)
			}
		}
	}
	// Final singleton pass: try the empty list if a single item remains.
	if len(items) == 1 && test(nil) {
		items = nil
	}
	return items
}

// shrinkPrec tries dropping the precedence layer outright. Run first: with
// the layer present, structural edits (dropping supersteps or sends) tend
// to break node-step ranges or edge coverage and get rejected wholesale, so
// a failure that does not need the layer shrinks far better without it. A
// failure that does need it (a precedence violation) keeps it, and the
// structural phases then shrink only what the layer's validity allows.
func (m *minimizer) shrinkPrec(w *work.IR) *work.IR {
	if w.Prec == nil {
		return w
	}
	c := w.Clone()
	c.Prec = nil
	if m.check(c) {
		return c
	}
	return w
}

// shrinkSupersteps drops whole supersteps.
func (m *minimizer) shrinkSupersteps(w *work.IR) *work.IR {
	steps := ddmin(w.Steps, func(cand []work.Step) bool {
		c := w.Clone()
		c.Steps = append([]work.Step(nil), cand...)
		return m.check(c)
	})
	w.Steps = steps
	m.renormalize(w)
	return w
}

// shrinkSends drops individual messages within each remaining superstep.
func (m *minimizer) shrinkSends(w *work.IR) *work.IR {
	for i := range w.Steps {
		kept := ddmin(w.Steps[i].Sends, func(cand []work.Send) bool {
			c := w.Clone()
			c.Steps[i].Sends = append([]work.Send(nil), cand...)
			return m.check(c)
		})
		w.Steps[i].Sends = kept
		m.renormalize(w)
	}
	return w
}

// shrinkInt lowers a value toward lo: first lo itself, then binary search
// on the surviving range. keep builds and tests the candidate.
func shrinkInt(v, lo int, keep func(int) bool) int {
	if v <= lo {
		return v
	}
	if keep(lo) {
		return lo
	}
	for lo+1 < v {
		mid := lo + (v-lo)/2
		if keep(mid) {
			v = mid
		} else {
			lo = mid
		}
	}
	return v
}

// shrinkSlots packs every processor's schedule toward slot 0, then shrinks
// each remaining slot value individually.
func (m *minimizer) shrinkSlots(w *work.IR) *work.IR {
	// One wholesale candidate first: repack all slots densely per
	// processor, preserving order. Often this single step does most of the
	// work.
	packed := w.Clone()
	for i := range packed.Steps {
		next := map[int]int{}
		sends := packed.Steps[i].Sends
		for j := range sends {
			s := &sends[j]
			s.Slot = next[s.Proc]
			next[s.Proc] = s.Slot + s.Flits()
		}
	}
	if m.check(packed) {
		w = packed
	}
	for i := range w.Steps {
		for j := range w.Steps[i].Sends {
			s := w.Steps[i].Sends[j]
			got := shrinkInt(s.Slot, 0, func(v int) bool {
				c := w.Clone()
				c.Steps[i].Sends[j].Slot = v
				return m.check(c)
			})
			w.Steps[i].Sends[j].Slot = got
		}
	}
	m.renormalize(w)
	return w
}

// shrinkLens lowers message lengths toward 0 (a Len of 0 or 1 is one
// flit, and 0 is the canonical short form the encoder omits).
func (m *minimizer) shrinkLens(w *work.IR) *work.IR {
	for i := range w.Steps {
		for j := range w.Steps[i].Sends {
			s := w.Steps[i].Sends[j]
			got := shrinkInt(s.Len, 0, func(v int) bool {
				c := w.Clone()
				c.Steps[i].Sends[j].Len = v
				return m.check(c)
			})
			w.Steps[i].Sends[j].Len = got
		}
	}
	m.renormalize(w)
	return w
}

// shrinkShape lowers every processor id toward 0, compacts the survivors,
// and lowers p, m, and l.
func (m *minimizer) shrinkShape(w *work.IR) *work.IR {
	// Pull each send's endpoints toward processor 0 (self-sends are legal),
	// so the machine below can shrink to a single processor.
	for i := range w.Steps {
		for j := range w.Steps[i].Sends {
			s := w.Steps[i].Sends[j]
			w.Steps[i].Sends[j].Proc = shrinkInt(s.Proc, 0, func(v int) bool {
				c := w.Clone()
				c.Steps[i].Sends[j].Proc = v
				return m.check(c)
			})
			s = w.Steps[i].Sends[j]
			w.Steps[i].Sends[j].Dst = shrinkInt(s.Dst, 0, func(v int) bool {
				c := w.Clone()
				c.Steps[i].Sends[j].Dst = v
				return m.check(c)
			})
		}
	}
	// Remap the used processor ids to a dense prefix, preserving order.
	used := map[int]bool{}
	for _, step := range w.Steps {
		for _, s := range step.Sends {
			used[s.Proc] = true
			used[s.Dst] = true
		}
	}
	if len(used) > 0 && len(used) < w.P {
		remap := map[int]int{}
		next := 0
		for id := 0; id < w.P; id++ {
			if used[id] {
				remap[id] = next
				next++
			}
		}
		c := w.Clone()
		for i := range c.Steps {
			for j := range c.Steps[i].Sends {
				c.Steps[i].Sends[j].Proc = remap[c.Steps[i].Sends[j].Proc]
				c.Steps[i].Sends[j].Dst = remap[c.Steps[i].Sends[j].Dst]
			}
		}
		c.P = next
		if c.M > c.P {
			c.M = c.P
		}
		if m.check(c) {
			w = c
		}
	}
	// Lower bounds: p must cover every referenced id, m >= 1, l >= 1.
	minP := 1
	for _, step := range w.Steps {
		for _, s := range step.Sends {
			if s.Proc+1 > minP {
				minP = s.Proc + 1
			}
			if s.Dst+1 > minP {
				minP = s.Dst + 1
			}
		}
	}
	w.P = shrinkInt(w.P, minP, func(v int) bool {
		c := w.Clone()
		c.P = v
		if c.M > v {
			c.M = v
		}
		return m.check(c)
	})
	if w.M > w.P {
		w.M = w.P
	}
	w.M = shrinkInt(w.M, 1, func(v int) bool {
		c := w.Clone()
		c.M = v
		return m.check(c)
	})
	w.L = shrinkInt(w.L, 1, func(v int) bool {
		c := w.Clone()
		c.L = v
		return m.check(c)
	})
	m.renormalize(w)
	return w
}
