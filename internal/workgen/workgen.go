// Package workgen generates random-but-reproducible workloads for the
// fuzzing subsystem. A workload is a work.IR: an explicit slot-scheduled
// communication pattern — which processor injects which message at which
// slot in which superstep — that the invariant oracles (internal/oracle) can
// drive through the BSP(m)/QSM(m)/PRAM(m) engines and price against the
// cost models.
//
// Determinism is the load-bearing property: the same (family, seed, config)
// yields a byte-identical workload (work.IR.Encode) on every platform and Go
// version, so a failing seed reported by CI reproduces locally and a shrunk
// counterexample checked into the oracle's testdata/corpus/ replays forever. Following wazero's modgen,
// one seed fans out into independent xrand sub-streams via xrand.Derive —
// one stream per decision axis (shape, slot schedule, injection rates, DAG
// edges) — so that tweaking how one axis consumes randomness does not
// reshuffle every other axis's draws.
package workgen

import (
	"fmt"
	"sort"

	"parbw/internal/work"
	"parbw/internal/work/dagsched"
	"parbw/internal/xrand"
)

// Family names a workload generator family.
type Family string

const (
	// FamilyHRel emits slot-scheduled h-relations: every processor sends a
	// bounded number of messages with uniform destinations, slots packed
	// per-processor with random gaps — the paper's basic routing workload.
	FamilyHRel Family = "hrel"
	// FamilyDAG emits a scheduled computational DAG in the style of BSP DAG
	// scheduling: a random layered DAG of work-carrying nodes is placed onto
	// the processors and lowered to supersteps by work/dagsched, so every
	// message realizes a cross-processor dependency edge and the workload
	// carries the full precedence layer for the oracle to replay.
	FamilyDAG Family = "dag"
	// FamilyBalls emits randomized balls-into-bins injection à la
	// Lenzen–Wattenhofer: senders are uniform, destinations are drawn from a
	// Zipf-skewed bin distribution, modeling contended random allocation.
	FamilyBalls Family = "balls"
)

// Families lists the supported families in stable order.
func Families() []Family { return []Family{FamilyHRel, FamilyDAG, FamilyBalls} }

// ParseFamily validates a family name from a CLI flag or corpus file.
func ParseFamily(s string) (Family, error) {
	f := Family(s)
	for _, known := range Families() {
		if f == known {
			return f, nil
		}
	}
	return "", fmt.Errorf("workgen: unknown family %q (want hrel, dag, or balls)", s)
}

// GenConfig sizes a generated workload. The zero value of every field means
// "draw from the shape stream"; pinning a field narrows the family without
// breaking determinism of the remaining axes.
type GenConfig struct {
	Family Family
	Seed   uint64
	P      int     // processors; 0 = draw from [2, 64]
	M      int     // machine bandwidth limit; 0 = draw from [1, P]
	L      int     // latency/periodicity; 0 = draw from [1, 8]
	Steps  int     // supersteps; 0 = draw from [1, 6]
	Load   float64 // mean sends per processor per superstep; 0 = draw from [0.25, 4]

	// Adversarial makes the generator corrupt the finished workload in one
	// seed-determined way (negative slot, out-of-range destination,
	// duplicate (slot, proc) entry, negative length, or a lying total), for
	// exercising rejection paths. Corrupted workloads must be rejected by
	// work.IR.Validate or the oracle's conservation check with a clean
	// error, never a panic.
	Adversarial bool
}

// streams bundles the per-axis random sub-streams. One seed fans out into
// one independent stream per decision axis, so axes never steal each
// other's draws.
type streams struct {
	shape  *xrand.Source // machine and workload dimensions
	slots  *xrand.Source // slot gaps within a processor's schedule
	inject *xrand.Source // who sends how much, message lengths
	edges  *xrand.Source // DAG edges / destination draws
}

func deriveStreams(family Family, seed uint64) streams {
	prefix := "workgen/" + string(family) + "/"
	return streams{
		shape:  xrand.Derive(seed, prefix+"shape"),
		slots:  xrand.Derive(seed, prefix+"slots"),
		inject: xrand.Derive(seed, prefix+"inject"),
		edges:  xrand.Derive(seed, prefix+"edges"),
	}
}

// orDraw returns pinned if positive, otherwise lo + shape draw in [0, hi-lo].
func orDraw(pinned int, rng *xrand.Source, lo, hi int) int {
	if pinned > 0 {
		return pinned
	}
	return lo + rng.Intn(hi-lo+1)
}

// GenerateIR emits the workload for cfg, deterministic in (cfg.Family,
// cfg.Seed, pinned fields): same inputs, same bytes from Encode. Generated
// workloads are communication-only — no compute-work vectors, which no
// invariant prices — and every superstep's send list is non-nil, so an
// empty one encodes as []. The returned IR passes work.IR.Validate unless
// cfg.Adversarial is set, in which case it is corrupted in one
// seed-determined way. Panics only on an invalid GenConfig (unknown family,
// negative pins); everything drawn is in range by construction.
func GenerateIR(cfg GenConfig) *work.IR {
	if _, err := ParseFamily(string(cfg.Family)); err != nil {
		panic(err)
	}
	if cfg.P < 0 || cfg.P > work.MaxP || cfg.M < 0 || cfg.L < 0 || cfg.Steps < 0 ||
		cfg.Steps > work.MaxSteps || cfg.Load < 0 {
		panic(fmt.Sprintf("workgen: invalid GenConfig %+v", cfg))
	}
	st := deriveStreams(cfg.Family, cfg.Seed)

	ir := &work.IR{Version: work.Version, Family: string(cfg.Family), Seed: cfg.Seed}
	ir.P = orDraw(cfg.P, st.shape, 2, 64)
	ir.M = orDraw(cfg.M, st.shape, 1, ir.P)
	if ir.M > ir.P {
		ir.M = ir.P
	}
	ir.L = orDraw(cfg.L, st.shape, 1, 8)
	steps := orDraw(cfg.Steps, st.shape, 1, 6)
	maxLen := 1 + st.shape.Intn(4) // max message flits, in [1, 4]
	load := cfg.Load
	if load == 0 {
		load = 0.25 + st.shape.Float64()*3.75
	}
	skew := st.shape.Float64() * 2 // Zipf exponent for balls destinations

	switch cfg.Family {
	case FamilyHRel:
		genHRel(ir, st, steps, maxLen, load)
	case FamilyDAG:
		genDAG(ir, st, steps, maxLen)
	case FamilyBalls:
		genBalls(ir, st, steps, load, skew)
	}

	for i := range ir.Steps {
		ir.Steps[i].Work = nil
		if ir.Steps[i].Sends == nil {
			ir.Steps[i].Sends = []work.Send{}
		}
	}
	ir.SealTotals()
	if cfg.Adversarial {
		corrupt(ir, xrand.Derive(cfg.Seed, "workgen/"+string(cfg.Family)+"/corrupt"))
	}
	return ir
}

// slotPacker assigns non-overlapping slots within one processor's schedule
// for one superstep: each send starts at the processor's next free slot
// plus a small random gap.
type slotPacker struct {
	next []int
	rng  *xrand.Source
}

func newPacker(p int, rng *xrand.Source) *slotPacker {
	return &slotPacker{next: make([]int, p), rng: rng}
}

func (sp *slotPacker) place(proc, flits int) int {
	slot := sp.next[proc] + sp.rng.Intn(3)
	sp.next[proc] = slot + flits
	return slot
}

func (sp *slotPacker) reset() {
	for i := range sp.next {
		sp.next[i] = 0
	}
}

// perStepBudget keeps the generator under the global send cap however
// extreme the drawn shape is.
func perStepBudget(steps int) int { return work.MaxSendsTotal / steps }

func genHRel(ir *work.IR, st streams, steps, maxLen int, load float64) {
	pack := newPacker(ir.P, st.slots)
	budget := perStepBudget(steps)
	for t := 0; t < steps; t++ {
		pack.reset()
		var sends []work.Send
		for i := 0; i < ir.P && len(sends) < budget; i++ {
			// Per-processor send count: geometric-ish around the load.
			k := int(load)
			if st.inject.Float64() < load-float64(k) {
				k++
			}
			for j := 0; j < k && len(sends) < budget; j++ {
				l := 1 + st.inject.Intn(maxLen)
				s := work.Send{
					Proc: i,
					Dst:  st.edges.Intn(ir.P),
					Len:  l,
				}
				s.Slot = pack.place(i, s.Flits())
				sends = append(sends, s)
			}
		}
		ir.Steps = append(ir.Steps, work.Step{Sends: sends})
	}
}

func genDAG(ir *work.IR, st streams, steps, maxLen int) {
	// A real layered computational DAG, scheduled: steps+1 levels of drawn
	// width (nodes are units of work, not processors), each non-source node
	// depending on 1..3 uniform predecessors in the previous level with a
	// drawn edge payload. The DAG is placed by dagsched's greedy level
	// scheduler and lowered to supersteps, so every message realizes a
	// cross-processor dependency edge and the precedence layer rides along
	// for the oracle to replay. Widths come from the shape stream, node
	// work and edge lengths from the inject stream, dependency draws from
	// the edges stream — the per-axis stream discipline of the package.
	nLevels := steps + 1
	if nLevels > work.MaxSteps {
		nLevels = work.MaxSteps
	}
	d := &dagsched.DAG{}
	levelNodes := make([][]int, nLevels)
	for lv := 0; lv < nLevels && len(d.Nodes) < work.MaxSendsTotal; lv++ {
		width := 1 + st.shape.Intn(ir.P)
		for k := 0; k < width && len(d.Nodes) < work.MaxSendsTotal; k++ {
			levelNodes[lv] = append(levelNodes[lv], len(d.Nodes))
			d.Nodes = append(d.Nodes, dagsched.Node{Work: int64(1 + st.inject.Intn(4))})
		}
	}
	for lv := 1; lv < nLevels; lv++ {
		prev := levelNodes[lv-1]
		for _, v := range levelNodes[lv] {
			deps := 1 + st.edges.Intn(3)
			for dd := 0; dd < deps && len(d.Edges) < work.MaxSendsTotal-1; dd++ {
				u := prev[st.edges.Intn(len(prev))]
				d.Edges = append(d.Edges, dagsched.Edge{U: u, V: v, Len: 1 + st.inject.Intn(maxLen)})
			}
		}
	}
	levels, err := d.Levels()
	if err != nil {
		panic(fmt.Sprintf("workgen: generated DAG not acyclic: %v", err))
	}
	place := dagsched.LevelSchedule(d, levels, ir.P)
	lowered, err := dagsched.Lower(d, levels, place, ir.P, ir.M, ir.L, dagsched.Options{})
	if err != nil {
		panic(fmt.Sprintf("workgen: DAG lowering failed: %v", err))
	}
	ir.Steps = lowered.Steps
	ir.Prec = lowered.Prec
}

func genBalls(ir *work.IR, st streams, steps int, load, skew float64) {
	// n balls per superstep, Zipf-skewed bins as destinations; each ball is
	// a unit message from a uniform sender. A permutation decouples bin
	// rank from processor id so bin 0 is not always processor 0.
	n := int(load * float64(ir.P))
	if n < 1 {
		n = 1
	}
	if b := perStepBudget(steps); n > b {
		n = b
	}
	z := xrand.NewZipf(st.edges, ir.P, skew)
	binOf := st.shape.Perm(ir.P)
	pack := newPacker(ir.P, st.slots)
	for t := 0; t < steps; t++ {
		pack.reset()
		sends := make([]work.Send, 0, n)
		for k := 0; k < n; k++ {
			src := st.inject.Intn(ir.P)
			s := work.Send{
				Proc: src,
				Dst:  binOf[z.Draw()],
				Len:  1,
			}
			s.Slot = pack.place(src, 1)
			sends = append(sends, s)
		}
		sort.Slice(sends, func(a, b int) bool {
			if sends[a].Proc != sends[b].Proc {
				return sends[a].Proc < sends[b].Proc
			}
			return sends[a].Slot < sends[b].Slot
		})
		ir.Steps = append(ir.Steps, work.Step{Sends: sends})
	}
}

// corrupt applies one seed-determined malformation so rejection paths can
// be exercised deterministically. If the workload has no sends it falls
// back to lying about the totals, which is always possible.
func corrupt(ir *work.IR, rng *xrand.Source) {
	type mutation func() bool // returns false if inapplicable
	pick := func() (int, *work.Send) {
		for si, step := range ir.Steps {
			if len(step.Sends) > 0 {
				return si, &ir.Steps[si].Sends[rng.Intn(len(step.Sends))]
			}
		}
		return -1, nil
	}
	muts := []mutation{
		func() bool { // negative slot
			_, s := pick()
			if s == nil {
				return false
			}
			s.Slot = -1 - rng.Intn(4)
			return true
		},
		func() bool { // out-of-range destination
			_, s := pick()
			if s == nil {
				return false
			}
			s.Dst = ir.P + rng.Intn(4)
			return true
		},
		func() bool { // duplicate (slot, proc) entry
			si, s := pick()
			if s == nil {
				return false
			}
			ir.Steps[si].Sends = append(ir.Steps[si].Sends, *s)
			return true
		},
		func() bool { // negative length
			_, s := pick()
			if s == nil {
				return false
			}
			s.Len = -1 - rng.Intn(4)
			return true
		},
		func() bool { // lying declared totals
			ir.TotalFlits += 1 + rng.Intn(100)
			return true
		},
	}
	i := rng.Intn(len(muts))
	for !muts[i]() {
		i = (i + 1) % len(muts)
	}
}
