package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"parbw/internal/bsp"
	"parbw/internal/collective"
	"parbw/internal/engine"
	"parbw/internal/harness"
	"parbw/internal/model"
	"parbw/internal/problems"
	"parbw/internal/sched"
	"parbw/internal/tablefmt"
	"parbw/internal/xrand"
)

// traceTargets maps the classic `bandsim trace <name>` algorithm targets to
// drivers executed on a traced BSP(m) machine (p=256, m=32, L=4, exponential
// penalty). Any registered experiment id is also a valid trace target: its
// run gives a recording observer to every machine it constructs, so the
// timeline holds each of their supersteps.
var traceTargets = map[string]func(m *bsp.Machine, seed uint64){
	"broadcast": func(m *bsp.Machine, seed uint64) {
		collective.BroadcastBSP(m, 0, 1)
	},
	"prefix": func(m *bsp.Machine, seed uint64) {
		vals := make([]int64, m.P())
		for i := range vals {
			vals[i] = int64(i)
		}
		collective.PrefixSumBSP(m, vals, collective.Sum, 0)
	},
	"unbalanced": func(m *bsp.Machine, seed uint64) {
		plan := sched.ZipfPlan(xrand.New(seed), m.P(), 8*m.P(), 1.1)
		sched.UnbalancedSend(m, plan, sched.Options{Eps: 0.25})
	},
	"listrank": func(m *bsp.Machine, seed uint64) {
		problems.ListRankContractBSP(m, problems.RandomList(xrand.New(seed), m.P()))
	},
	"sort": func(m *bsp.Machine, seed uint64) {
		keys := make([]int64, m.P())
		rng := xrand.New(seed)
		for i := range keys {
			keys[i] = int64(rng.Uint64() % 9973)
		}
		problems.ColumnsortBSP(m, keys, 8)
	},
}

// traceTargetNames returns the legacy algorithm target names, sorted.
func traceTargetNames() []string {
	names := make([]string, 0, len(traceTargets))
	for n := range traceTargets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// unknownTraceTargetError formats the failure for a mistyped trace target
// with closest-match suggestions drawn from both the legacy algorithm names
// and the experiment registry, mirroring `bandsim run`'s behavior.
func unknownTraceTargetError(name string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "unknown trace target %q", name)
	var sug []string
	q := strings.ToLower(strings.TrimSpace(name))
	for _, n := range traceTargetNames() {
		common := 0
		for common < len(n) && common < len(q) && n[common] == q[common] {
			common++
		}
		if q != "" && (strings.Contains(n, q) || common >= 3) {
			sug = append(sug, n)
		}
	}
	sug = append(sug, harness.Suggest(name)...)
	if len(sug) > 0 {
		b.WriteString("\ndid you mean:\n")
		for _, s := range sug {
			fmt.Fprintf(&b, "  %s\n", s)
		}
		b.WriteString("targets are the algorithm names ")
		fmt.Fprintf(&b, "%v or any experiment id ('bandsim list')", traceTargetNames())
	} else {
		fmt.Fprintf(&b, "\ntargets are the algorithm names %v or any experiment id ('bandsim list')", traceTargetNames())
	}
	return fmt.Errorf("%s", b.String())
}

// runTrace executes the named target and prints a per-superstep timeline:
// work, h, injection steps, max per-step load, overloads, c_m and the
// superstep's charged cost. A legacy algorithm name runs on a dedicated
// traced BSP(m) machine; an experiment id runs the experiment with an
// observer that each of its machines receives at construction, so the
// timeline covers every machine (BSP, QSM, PRAM) the experiment drives.
func runTrace(w io.Writer, name string, seed uint64, csv bool) error {
	if fn, ok := traceTargets[name]; ok {
		m := bsp.New(bsp.Config{P: 256, Cost: model.BSPm(32, 4), Seed: seed, Trace: true})
		fn(m, seed)
		t := tablefmt.New(fmt.Sprintf("superstep timeline: %s (p=256, m=32, L=4)", name),
			"superstep", "work", "h", "msgs", "steps", "maxload", "overloads", "c_m", "cost", "cum time")
		cum := 0.0
		for i, st := range m.Trace() {
			cum += st.Cost
			t.Row(i, st.W, st.H, st.N, st.Steps, st.MaxSlot, st.Overload, st.CM, st.Cost, cum)
		}
		if csv {
			fmt.Fprint(w, t.CSV())
		} else {
			fmt.Fprintln(w, t.String())
		}
		fmt.Fprintf(w, "total simulated time: %.1f over %d supersteps\n", m.Time(), m.Supersteps())
		return nil
	}
	if e, ok := harness.ByID(name); ok {
		return traceExperiment(w, e, seed, csv)
	}
	return unknownTraceTargetError(name)
}

// traceExperiment runs one registered experiment with a recording observer
// attached and prints the combined timeline of every machine it drove.
func traceExperiment(w io.Writer, e harness.Experiment, seed uint64, csv bool) error {
	var steps []engine.StepStats
	obs := engine.ObserverFunc(func(st engine.StepStats) {
		steps = append(steps, st)
	})
	cfg := harness.Config{Seed: seed, Params: harness.QuickParams(), Observer: obs}
	e.Run(io.Discard, cfg)

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
