package harness

import (
	"fmt"

	"parbw/internal/model"
	"parbw/internal/sched"
	"parbw/internal/tablefmt"
	"parbw/internal/work"
	"parbw/internal/work/dagsched"
	"parbw/internal/xrand"
)

func init() {
	register(Experiment{
		ID:     "dag/lower",
		Title:  "Level-scheduled DAG lowerings priced under BSP(g) vs BSP(m)",
		Source: "Section 2 models over precedence-structured workloads; Theorem 6.2 for the BSP(m) schedule",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (64 full, 16 quick)").Range(0, work.MaxP),
			IntParam("m", 0, "0 = built-in aggregate bandwidth (16 full, 8 quick)").Range(0, 1<<16),
			IntParam("l", 4, "latency/periodicity floor L").Range(0, 1<<16),
			IntParam("deps", 2, "dependencies drawn per node on the previous level").Range(1, 8),
			IntParam("maxlen", 4, "maximum edge payload in flits").Range(1, work.MaxMsgLen),
			FloatParam("eps", 0.25, "schedule slack ε of the Unbalanced-Send pricing").Range(0.001, 8),
		},
		run: runDAGLower,
	})
	register(Experiment{
		ID:     "dag/comm",
		Title:  "Comm-aware placement and message batching for DAG lowerings",
		Source: "Section 2 models; message-combining folklore (PAPERS.md, Papp et al.)",
		Params: []ParamSpec{
			IntParam("p", 0, "0 = built-in size (64 full, 16 quick)").Range(0, work.MaxP),
			IntParam("m", 0, "0 = built-in aggregate bandwidth (16 full, 8 quick)").Range(0, 1<<16),
			IntParam("l", 4, "latency/periodicity floor L").Range(0, 1<<16),
			IntParam("width", 0, "0 = built-in nodes per level (32 full, 8 quick)").Range(0, 1<<10),
			IntParam("depth", 0, "0 = built-in levels (8 full, 4 quick)").Range(0, work.MaxSteps),
			FloatParam("cap", 2, "comm-aware load cap factor over perfect balance").Range(1, 16),
			FloatParam("eps", 0.25, "schedule slack ε of the Unbalanced-Send pricing").Range(0.001, 8),
		},
		run: runDAGComm,
	})
}

// layeredDAG builds a random layered DAG: depth levels of width nodes each,
// every node past level 0 consuming 1..deps outputs of the previous level
// (duplicate picks model a consumer reading the same output twice). Layer
// membership equals longest-path level by construction, so the lowering's
// level bands match the generator's layers exactly.
func layeredDAG(rng *xrand.Source, width, depth, deps, maxLen int) *dagsched.DAG {
	d := &dagsched.DAG{Nodes: make([]dagsched.Node, width*depth)}
	for i := range d.Nodes {
		d.Nodes[i].Work = int64(1 + rng.Intn(3))
	}
	for lv := 1; lv < depth; lv++ {
		for j := 0; j < width; j++ {
			v := lv*width + j
			k := 1 + rng.Intn(deps)
			for e := 0; e < k; e++ {
				u := (lv-1)*width + rng.Intn(width)
				d.Edges = append(d.Edges, dagsched.Edge{U: u, V: v, Len: 1 + rng.Intn(maxLen)})
			}
		}
	}
	return d
}

// commOnly strips the compute vectors from a lowered schedule: work is
// charged identically under every cost model, so the BSP(g)-vs-BSP(m)
// comparison prices communication alone.
func commOnly(ir *work.IR) *work.IR {
	c := ir.Clone()
	for i := range c.Steps {
		c.Steps[i].Work = nil
	}
	return c
}

// pricing is one lowered schedule priced three ways at matched aggregate
// bandwidth (g = p/m): replayed as-is on BSP(g), replayed as-is on the
// exponential-penalty BSP(m), and rescheduled per superstep by
// Unbalanced-Send on BSP(m). replayOv and schedOv count the injection steps
// exceeding the global budget m under each BSP(m) run.
type pricing struct {
	tg, tm, ts        float64
	replayOv, schedOv int
}

func priceLowering(comm *work.IR, p, mm, g, l int, eps float64, cfg Config) pricing {
	var pr pricing
	mg := newBSP(p, model.BSPg(g, l), cfg)
	sched.ReplayAll(mg, comm)
	pr.tg = float64(mg.Time())

	mb := newBSP(p, model.BSPm(mm, l), cfg)
	for _, st := range sched.ReplayAll(mb, comm) {
		pr.replayOv += st.Overload
	}
	pr.tm = float64(mb.Time())

	// The lowering knows its own traffic, so Unbalanced-Send runs with n
	// known (no learn-n collective); empty supersteps launch no comm phase.
	ms := newBSP(p, model.BSPm(mm, l), cfg)
	for step := range comm.Steps {
		n := 0
		for _, s := range comm.Steps[step].Sends {
			n += s.Flits()
		}
		if n == 0 {
			continue
		}
		r := sched.UnbalancedSend(ms, sched.Plan(comm.Rows(step)), sched.Options{Eps: eps, KnownN: n})
		pr.schedOv += r.Send.Overload
	}
	pr.ts = float64(ms.Time())
	return pr
}

func runDAGLower(rec *Recorder) {
	cfg := rec.Cfg
	p, mm, l := rec.IntOr("p", 64, 16), rec.IntOr("m", 16, 8), rec.Int("l")
	deps, maxLen := rec.Int("deps"), rec.Int("maxlen")
	eps := rec.Float("eps")
	g := max(p/mm, 1)
	widths := pick(rec.Bool("quick"), []int{16, 64, 256}, []int{4, 16, 64})
	depths := pick(rec.Bool("quick"), []int{4, 16}, []int{4, 8})
	t := tablefmt.New(fmt.Sprintf("level-scheduled DAG lowering, comm only (p=%d, m=%d, g=p/m=%d, exp penalty)", p, mm, g),
		"width", "depth", "nodes", "xedges", "xflits", "BSP(g) replay", "BSP(m) replay", "ov(replay)", "BSP(m) UnbSend", "ov(sched)", "sched/BSP(g)")
	rng := xrand.Derive(cfg.Seed, "harness/dag/lower")
	cells, globalWins, overCells, schedCaps := 0, 0, 0, 0
	for _, w := range widths {
		for _, dep := range depths {
			d := layeredDAG(rng.Split(uint64(w)<<16|uint64(dep)), w, dep, deps, maxLen)
			levels, err := d.Levels()
			if err != nil {
				panic(err)
			}
			place := dagsched.LevelSchedule(d, levels, p)
			ir, err := dagsched.Lower(d, levels, place, p, mm, l, dagsched.Options{})
			if err != nil {
				panic(err)
			}
			comm := commOnly(ir)
			xe, xf := dagsched.CrossEdges(d, place)
			pr := priceLowering(comm, p, mm, g, l, eps, cfg)
			cells++
			if pr.ts <= pr.tg {
				globalWins++
			}
			if pr.replayOv > 0 {
				overCells++
				if pr.schedOv < pr.replayOv {
					schedCaps++
				}
			}
			t.Row(w, dep, len(d.Nodes), xe, xf, pr.tg, pr.tm, pr.replayOv, pr.ts, pr.schedOv, pr.ts/pr.tg)
		}
	}
	rec.Emit(t)
	rec.Notef("replay injects the dense per-processor slots as lowered; on wide levels that floods the global budget m and the exponential penalty makes BSP(m) replay lose — Unbalanced-Send restores the global model's advantage")
	rec.Verdict("dag/global-wins-scheduled", globalWins == cells,
		fmt.Sprintf("scheduled BSP(m) beats BSP(g) pricing of the same lowering on %d/%d cells at matched aggregate bandwidth", globalWins, cells))
	rec.Verdict("dag/schedule-caps-overload", schedCaps == overCells,
		fmt.Sprintf("Unbalanced-Send rescheduling cuts overloaded injection steps on %d/%d cells the dense lowering overloads", schedCaps, overCells))
}

func runDAGComm(rec *Recorder) {
	cfg := rec.Cfg
	p, mm, l := rec.IntOr("p", 64, 16), rec.IntOr("m", 16, 8), rec.Int("l")
	w, dep := rec.IntOr("width", 32, 8), rec.IntOr("depth", 8, 4)
	capf, eps := rec.Float("cap"), rec.Float("eps")
	g := max(p/mm, 1)
	densities := pick(rec.Bool("quick"), []int{1, 2, 4, 8}, []int{1, 2, 4})
	t := tablefmt.New(fmt.Sprintf("greedy vs comm-aware placement, batched combining (w=%d, d=%d, p=%d, m=%d, comm only)", w, dep, p, mm),
		"deps", "xflits greedy", "xflits aware", "msgs aware", "msgs batched", "BSP(g) greedy", "BSP(g) aware", "BSP(m) aware", "BSP(m)/BSP(g)")
	rng := xrand.Derive(cfg.Seed, "harness/dag/comm")
	rows, awareWins, batchWins, globalWins := 0, 0, 0, 0
	for _, deps := range densities {
		d := layeredDAG(rng.Split(uint64(deps)), w, dep, deps, 4)
		levels, err := d.Levels()
		if err != nil {
			panic(err)
		}
		greedy := dagsched.LevelSchedule(d, levels, p)
		aware := dagsched.CommAwareSchedule(d, levels, p, capf)
		_, gf := dagsched.CrossEdges(d, greedy)
		_, af := dagsched.CrossEdges(d, aware)
		irG, err := dagsched.Lower(d, levels, greedy, p, mm, l, dagsched.Options{})
		if err != nil {
			panic(err)
		}
		irA, err := dagsched.Lower(d, levels, aware, p, mm, l, dagsched.Options{})
		if err != nil {
			panic(err)
		}
		irAB, err := dagsched.Lower(d, levels, aware, p, mm, l, dagsched.Options{Batch: true})
		if err != nil {
			panic(err)
		}
		commG, commAB := commOnly(irG), commOnly(irAB)

		mgG := newBSP(p, model.BSPg(g, l), cfg)
		sched.ReplayAll(mgG, commG)
		tgG := float64(mgG.Time())
		pr := priceLowering(commAB, p, mm, g, l, eps, cfg)

		rows++
		if af <= gf {
			awareWins++
		}
		if irAB.TotalSends <= irA.TotalSends {
			batchWins++
		}
		if pr.tm <= pr.tg {
			globalWins++
		}
		t.Row(deps, gf, af, irA.TotalSends, irAB.TotalSends, tgG, pr.tg, pr.tm, pr.tm/pr.tg)
	}
	rec.Emit(t)
	rec.Verdict("dag/comm-aware-cuts-cross-traffic", awareWins == rows,
		fmt.Sprintf("comm-aware placement carries no more cross-processor flits than greedy on %d/%d densities", awareWins, rows))
	rec.Verdict("dag/batching-coalesces", batchWins == rows,
		fmt.Sprintf("batched lowering sends no more messages than unbatched on %d/%d densities", batchWins, rows))
	rec.Verdict("dag/global-wins-comm", globalWins == rows,
		fmt.Sprintf("BSP(m) executes the comm-aware batched lowering no slower than BSP(g) on %d/%d densities at matched aggregate bandwidth", globalWins, rows))
}
