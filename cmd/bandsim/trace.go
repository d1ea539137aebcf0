package main

import (
	"errors"
	"fmt"
	"io"

	"parbw/internal/engine"
	"parbw/internal/harness"
	"parbw/internal/tablefmt"
)

// runTrace runs one registered experiment at the quick preset, with sets
// applied on top of it, and prints the per-superstep timeline of every
// machine (BSP, QSM, PRAM) the experiment drove: work, h, traffic,
// injection steps, max per-step load, overloads, c_m and the step's charged
// cost. The run's observer, which each machine receives at construction,
// records the steps. An unknown id or an invalid assignment is an error with
// the same did-you-mean suggestions `bandsim run` gives.
func runTrace(w io.Writer, id string, seed uint64, sets map[string]string, csv bool) error {
	e, ok := harness.ByID(id)
	if !ok {
		return errors.New(unknownIDMessage(id))
	}
	params := harness.QuickParams()
	for k, v := range sets {
		params[k] = v
	}
	if _, err := e.Resolve(params); err != nil {
		return err
	}
	var steps []engine.StepStats
	obs := engine.ObserverFunc(func(st engine.StepStats) {
		st.Hist = nil // aliases a recycled buffer
		steps = append(steps, st)
	})
	e.Run(io.Discard, harness.Config{Seed: seed, Params: params, Observer: obs})

	t := tablefmt.New(fmt.Sprintf("superstep timeline: %s (quick, seed %d)", e.ID, seed),
		"#", "machine", "step", "work", "h", "msgs", "steps", "maxload", "overloads", "c_m", "cost", "cum time")
	cum := 0.0
	for i, st := range steps {
		cum += st.Cost
		t.Row(i, st.Machine, st.Index, st.W, st.H, st.N, st.Steps, st.MaxSlot, st.Overload, st.CM, st.Cost, cum)
	}
	if csv {
		fmt.Fprint(w, t.CSV())
	} else {
		fmt.Fprintln(w, t.String())
	}
	fmt.Fprintf(w, "total simulated time: %.1f over %d machine steps\n", cum, len(steps))
	return nil
}
