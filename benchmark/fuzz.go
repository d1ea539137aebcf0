package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"parbw/internal/engine"
	"parbw/internal/oracle"
	"parbw/internal/workgen"
	"parbw/internal/workpool"
)

// fuzz is a `bandsim fuzz` batch: generate a workload per seed, families in
// rotation, and check every invariant oracle against it, fanned out over a
// workpool as wide as GOMAXPROCS. The machines are tiny (p ≤ 64), so the
// schedulers and oracles do most of the work.
type fuzz struct {
	o       options
	outputs checker
}

// warm is how many seeds, past the measured batch, each setup checks.
func (w *fuzz) warm() int { return max(w.o.scale.fuzzSeeds/8, 1) }

// base is the first seed of the measured batch; each benchmark seed owns a
// disjoint range.
func (w *fuzz) base() uint64 { return 1 + (w.o.seed-1)*uint64(w.o.scale.fuzzSeeds+w.warm()) }

func (w *fuzz) setup() error {
	w.batch(w.base()+uint64(w.o.scale.fuzzSeeds), w.warm(), nil)
	return nil
}

type fuzzCell struct {
	sends, flits int
	violations   []oracle.Violation
}

// batch generates and checks n workloads from seed first on.
func (w *fuzz) batch(first uint64, n int, tr *tracer) []fuzzCell {
	fams := workgen.Families()
	cells := make([]fuzzCell, n)
	root := tr.openRoot(spanFuzzBatch)
	workpool.New(0).For(n, func(i int) {
		sp := tr.open(spanGenerate, "", root)
		ir := workgen.GenerateIR(workgen.GenConfig{Family: fams[i%len(fams)], Seed: first + uint64(i)})
		tr.close(sp, 0)
		sp = tr.open(spanCheck, "", root)
		vs := oracle.CheckIR(ir)
		tr.close(sp, 0)
		sends, flits := ir.CountSends()
		cells[i] = fuzzCell{sends, flits, vs}
	})
	tr.close(root, 0)
	return cells
}

// op is one batch.
func (w *fuzz) op(k kind) sample {
	tr := w.o.tracerFor(k)
	n := w.o.scale.fuzzSeeds
	s := sample{kind: k, ops: 1, items: n, st: stats{}}
	mark := tr.mark()
	c0 := engine.GlobalCounters()
	a0 := allocated()
	start := time.Now()
	cells := w.batch(w.base(), n, tr)
	s.dur = time.Since(start)
	s.alloc = allocated() - a0
	s.lat = []float64{durMS(s.dur)}
	c1 := engine.GlobalCounters()
	s.st["engine.supersteps"] = float64(c1.Supersteps - c0.Supersteps)
	s.st["engine.messages"] = float64(c1.Messages - c0.Messages)

	h := sha256.New()
	for i, c := range cells {
		fmt.Fprintf(h, "%d %d %d %d\n", w.base()+uint64(i), c.sends, c.flits, len(c.violations))
		for _, v := range c.violations {
			fmt.Fprintf(h, "\t%s\n", v.Invariant)
		}
		s.st["fuzz.sends"] += float64(c.sends)
		s.st["fuzz.flits"] += float64(c.flits)
		s.st["oracle.violations"] += float64(len(c.violations))
	}
	if s.st["oracle.violations"] > 0 || !w.outputs.match(hex.EncodeToString(h.Sum(nil))) {
		s.failed = 1
	}
	if k.traced {
		spanStats(tr.since(mark), k.procs, s.st)
	}
	return s
}

func (w *fuzz) check(r *report, _ []sample, _ stats) {
	w.outputs.finish(r, w.o)
	r.row = append(r.row, fmt.Sprintf("seeds=%d..%d", w.base(), w.base()+uint64(w.o.scale.fuzzSeeds)-1))
}

func (w *fuzz) close() {}
