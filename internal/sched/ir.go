package sched

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/work"
)

// This file prices a work.IR exactly as scheduled. The schedulers choose
// their own slots, so they take one superstep's traffic as a Plan —
// sched.Plan(ir.Rows(step)) — while ReplayAll injects the IR's explicit slot
// schedule verbatim, pricing a lowered schedule as-is (the DAG experiments)
// rather than re-scheduling it.

// compileIR groups one IR superstep's sends by processor (work.IR.ByProc).
// It panics on a machine/IR shape mismatch or an out-of-range step; the IR
// itself must already have passed work.IR.Validate.
func compileIR(m *bsp.Machine, ir *work.IR, step int) (row, order []int) {
	if p := m.P(); ir.P != p {
		panic(fmt.Sprintf("sched: IR built for p=%d but machine has p=%d", ir.P, p))
	}
	if step < 0 || step >= len(ir.Steps) {
		panic(fmt.Sprintf("sched: superstep %d out of range [0, %d)", step, len(ir.Steps)))
	}
	return ir.ByProc(step)
}

// ReplayAll runs every superstep of the IR in order, exactly as scheduled,
// and returns the per-superstep stats: each processor is charged its
// compute work, then injects every send at the send's explicit slot. This
// prices a lowered schedule as-is — no re-scheduling — under whatever cost
// model the machine carries, and is what the DAG experiments drive. It
// panics on an IR that fails work.IR.Validate (checked once, not once per
// superstep), so callers holding adversarial input must Validate first.
func ReplayAll(m *bsp.Machine, ir *work.IR) []bsp.Stats {
	if err := ir.Validate(); err != nil {
		panic(err.Error())
	}
	out := make([]bsp.Stats, len(ir.Steps))
	for step := range ir.Steps {
		row, order := compileIR(m, ir, step)
		sends := ir.Steps[step].Sends
		workVec := ir.Steps[step].Work
		out[step] = m.Superstep(func(c *bsp.Ctx) {
			i := c.ID()
			if i < len(workVec) {
				c.Charge(int(workVec[i]))
			}
			for _, k := range order[row[i]:row[i+1]] {
				s := &sends[k]
				c.SendAt(s.Slot, s.Dst, s.Msg())
			}
		})
	}
	return out
}
