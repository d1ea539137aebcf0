// Package engine is the shared superstep core under every machine simulator
// in this repository. The BSP, QSM, and PRAM machines all execute the same
// abstract loop — reset the one processor context and run each processor's
// program, one processor at a time in ascending id order on the caller's
// goroutine, run a model-specific merge that validates schedules and
// computes the step's cost, then commit: advance the simulated clock and
// notify the observer. Host parallelism lives a level up, where independent
// machines (sweep cells) run side by side; one machine never splits a
// superstep across goroutines.
//
// Each machine writes its own program loop and merge on its concrete types;
// Core is the commit half they share. Commit stamps the step's machine label
// and index, adds its cost to the clock, folds it into the process-wide
// counters and calls the machine's observer. Costs are computed entirely
// inside the merge, so Core cannot change any simulated time: it only adds
// the merged cost to the clock.
//
// Core also owns the observability layer of observer.go: a normalized
// per-step callback to the observer the machine was constructed with, plus
// cheap process-wide atomic counters that aggregate across every machine in
// the process (surfaced by `bandsim serve` on /statsz). Core keeps no
// per-step record of its own: a step is seen through an observer or through
// the native Stats value the machine returns. Each machine keeps its own
// recycled slot histogram.
package engine

import "parbw/internal/model"

// Core is the commit half of a machine's superstep loop. Methods must be
// called from a single driver goroutine, mirroring the machines' contract.
type Core struct {
	label string
	obs   Observer // nil: the machine is unobserved

	time  model.Time
	steps int
}

// NewCore constructs a Core. label names the machine family in StepStats
// ("bsp", "qsm", "pram"); obs, if non-nil, sees every committed step.
func NewCore(label string, obs Observer) *Core {
	return &Core{label: label, obs: obs}
}

// Time returns the accumulated simulated time.
func (c *Core) Time() model.Time { return c.time }

// Steps returns the number of supersteps committed.
func (c *Core) Steps() int { return c.steps }

// Commit records one merged superstep: it stamps view with the machine label
// and the step's index, advances the clock by view.Cost and the step count
// by one, folds the step into the process-wide counters, and hands view to
// the observer.
func (c *Core) Commit(view StepStats) {
	view.Machine = c.label
	view.Index = c.steps
	c.time += view.Cost
	c.steps++
	countStep(view)
	if c.obs != nil {
		c.obs.OnStep(view)
	}
}
