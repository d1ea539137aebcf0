package sched

import "fmt"

// PlanError reports why a plan failed validation. Proc is the offending
// processor row and Index the offending entry within it; both are -1 for
// shape errors that have no single offending entry.
type PlanError struct {
	Proc   int
	Index  int
	Reason string
}

func (e *PlanError) Error() string { return "sched: " + e.Reason }

// CheckPlan validates plan for a machine with procs processors without
// running it: the plan must have exactly procs rows, every destination must
// lie in [0, procs), and no message may have negative length. It returns nil
// exactly when the schedulers accept the plan; compile panics on the plans
// CheckPlan rejects. Generated or adversarial plans (internal/workgen) must
// be gated through CheckPlan so that malformed input surfaces as an error,
// never a panic. A plan projected from a work.IR superstep (Rows) has
// exactly ir.P rows, so CheckPlan also catches a machine built for a
// different P.
func CheckPlan(procs int, plan Plan) error {
	if procs < 0 {
		return &PlanError{Proc: -1, Index: -1,
			Reason: fmt.Sprintf("negative processor count %d", procs)}
	}
	if len(plan) != procs {
		return &PlanError{Proc: -1, Index: -1,
			Reason: fmt.Sprintf("plan has %d rows for %d processors", len(plan), procs)}
	}
	for i, msgs := range plan {
		for j, msg := range msgs {
			if int(msg.Dst) < 0 || int(msg.Dst) >= procs {
				return &PlanError{Proc: i, Index: j,
					Reason: fmt.Sprintf("proc %d message to invalid dst %d", i, msg.Dst)}
			}
			if msg.Len < 0 {
				return &PlanError{Proc: i, Index: j,
					Reason: fmt.Sprintf("proc %d message %d has negative length %d", i, j, msg.Len)}
			}
		}
	}
	return nil
}
