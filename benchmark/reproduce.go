package main

import (
	"fmt"
	"io"
	"time"

	"parbw/internal/engine"
	"parbw/internal/harness"
)

// reproduce is `bandsim run all`: every registered experiment, in id order,
// run silently and encoded as canonical JSON. It is engine-bound and
// bypasses the service and the run store.
type reproduce struct {
	o       options
	exps    []harness.Experiment
	outputs checker
}

// setup lists the registry, validates the preset against every schema and
// warms every experiment on the quick preset.
func (w *reproduce) setup() error {
	w.exps = w.o.scale.experiments()
	for _, e := range w.exps {
		if _, err := e.Resolve(w.o.scale.preset); err != nil {
			return err
		}
		e.Run(io.Discard, harness.Config{Seed: w.o.seed, Params: harness.QuickParams()})
	}
	return nil
}

// op is one pass.
func (w *reproduce) op(k kind) sample {
	tr := w.o.tracerFor(k)
	s := sample{kind: k, ops: 1, items: len(w.exps), st: stats{}}
	mark := tr.mark()
	c0 := engine.GlobalCounters()
	out := make(map[string][]byte, len(w.exps))
	a0 := allocated()
	start := time.Now()
	root := tr.openRoot(spanRunAll)
	for _, e := range w.exps {
		sp := tr.open(spanResolve, e.ID, root)
		_, err := e.Resolve(w.o.scale.preset)
		tr.close(sp, 0)
		if err != nil {
			s.failed = 1
			continue
		}
		sp = tr.open(spanRun, e.ID, root)
		res := e.Run(io.Discard, harness.Config{Seed: w.o.seed, Params: w.o.scale.preset})
		tr.close(sp, 0)
		data, err := tr.encode(res, root)
		if err != nil {
			s.failed = 1
			continue
		}
		out[e.ID] = data
	}
	tr.close(root, 0)
	s.dur = time.Since(start)
	s.alloc = allocated() - a0
	s.lat = []float64{durMS(s.dur)}
	c1 := engine.GlobalCounters()
	s.st["engine.supersteps"] = float64(c1.Supersteps - c0.Supersteps)
	s.st["engine.messages"] = float64(c1.Messages - c0.Messages)
	if !w.outputs.match(digest(out)) {
		s.failed = 1
	}
	if k.traced {
		spanStats(tr.since(mark), 1, s.st)
	}
	return s
}

func (w *reproduce) check(r *report, _ []sample, _ stats) {
	w.outputs.finish(r, w.o)
	r.row = append(r.row, fmt.Sprintf("experiments=%d", len(w.exps)))
}

func (w *reproduce) close() {}
