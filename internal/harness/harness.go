// Package harness defines the experiment registry that regenerates every
// table and quantitative claim of the paper: the five Table 1 rows, the
// Section 4.2 broadcast lower bound, the Section 5 concurrent-read results,
// the Section 6.1 scheduling theorems, the Section 6.2 dynamic routing
// theorems, and the ablations called out in DESIGN.md.
//
// Each experiment produces a structured *result.Result — named-column tables
// with measured simulated time next to the paper's predicted bound and their
// ratio, plus optional verdicts — and the ASCII-table / CSV output is a view
// rendered from that structure. The bounds are asymptotic, so a reproduction
// is judged on shape: ratios that stay roughly flat across a sweep, and "who
// wins" agreeing with the paper.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"parbw/internal/engine"
	"parbw/internal/result"
	"parbw/internal/tablefmt"
	"parbw/internal/workpool"
)

// CodeVersion names the current revision of the experiment semantics. It is
// folded into the run-store cache key alongside (experiment id, params,
// seed), so bumping it invalidates every previously stored run. Bump it
// whenever any experiment's structured output changes.
const CodeVersion = "2"

// Config controls an experiment run.
type Config struct {
	Seed uint64
	// Params holds raw parameter overrides by name ("p" → "64"). Unset
	// parameters take their schema defaults; nil runs every default. Values
	// are validated against the experiment's ParamSpec schema by Resolve.
	// The former Quick boolean is the Presets["quick"] overlay.
	Params map[string]string
	CSV    bool // emit CSV instead of aligned tables
	// Observer, if non-nil, receives an engine.StepStats callback for every
	// superstep of every machine the experiment constructs, in commit order
	// and from one goroutine: an observed run runs its sweep cells (see
	// Recorder.Rows) one after another on the caller instead of on the
	// worker pool. It is given to each machine at construction, so it sees
	// only this run's machines and observed runs proceed in parallel with
	// any others.
	Observer engine.Observer
}

// Recorder collects the structured output of one experiment run and hands
// the experiment body its resolved parameters. Bodies emit tables, notes,
// and verdicts through it and read parameters via Int/Float/Bool; they never
// write to an io.Writer directly.
type Recorder struct {
	Cfg    Config
	res    *result.Result
	expID  string
	specs  map[string]ParamSpec
	values Resolved
}

// param returns the canonical value of a declared parameter, panicking on an
// undeclared name or kind mismatch — both programming errors in the
// experiment body, not runtime input errors.
func (r *Recorder) param(name string, kind ParamKind) string {
	spec, ok := r.specs[name]
	if !ok {
		panic(fmt.Sprintf("harness: experiment %q reads undeclared param %q", r.expID, name))
	}
	if spec.Kind != kind {
		panic(fmt.Sprintf("harness: experiment %q reads param %q as %v but it is declared %v",
			r.expID, name, kind, spec.Kind))
	}
	return r.values[name]
}

// Int returns the resolved value of a declared int parameter.
func (r *Recorder) Int(name string) int {
	n, _ := strconv.ParseInt(r.param(name, KindInt), 10, 64)
	return int(n)
}

// Float returns the resolved value of a declared float parameter.
func (r *Recorder) Float(name string) float64 {
	f, _ := strconv.ParseFloat(r.param(name, KindFloat), 64)
	return f
}

// Bool returns the resolved value of a declared bool parameter.
func (r *Recorder) Bool(name string) bool {
	b, _ := strconv.ParseBool(r.param(name, KindBool))
	return b
}

// IntOr resolves a sentinel int parameter: a positive value overrides; zero
// means "use the built-in value" — full normally, quick under the quick
// preset.
func (r *Recorder) IntOr(name string, full, quick int) int {
	if v := r.Int(name); v > 0 {
		return v
	}
	return pick(r.Bool("quick"), full, quick)
}

// IntSweep resolves a sentinel int parameter controlling a sweep axis: a
// positive value collapses the sweep to that single point; zero keeps the
// built-in sweep (full normally, quick under the quick preset).
func (r *Recorder) IntSweep(name string, full, quick []int) []int {
	if v := r.Int(name); v > 0 {
		return []int{v}
	}
	return pick(r.Bool("quick"), full, quick)
}

// Emit records a finished table into the run's structured result.
func (r *Recorder) Emit(t *tablefmt.Table) {
	r.res.AddTable(*t)
}

// Rows fills t from n independent sweep cells. cell(i, row) computes cell
// i and emits its rows through row, which takes Table.Row's arguments. Each
// cell must build its own machines and random sources and share no mutable
// state with the others, because cells run concurrently on a GOMAXPROCS
// worker pool: host parallelism lives at the cell, never inside a
// machine's superstep. Rows are appended to t in (cell, emission) order, so
// the table is the same whichever cell finishes first. A panicking cell
// re-raises the lowest-numbered cell's panic, as a serial loop would. An
// observed run (Cfg.Observer set) runs its cells in order on the caller,
// so the observer still sees every superstep in commit order from one
// goroutine.
func (r *Recorder) Rows(t *tablefmt.Table, n int, cell func(i int, row func(cells ...any))) {
	workers := 0
	if r.Cfg.Observer != nil {
		workers = 1 // the caller claims cells in order, with no helpers
	}
	out := make([]tablefmt.Table, n)
	workpool.New(workers).For(n, func(i int) { cell(i, out[i].Row) })
	for i := range out {
		t.Rows = append(t.Rows, out[i].Rows...)
	}
}

// Notef records a free-form note line.
func (r *Recorder) Notef(format string, args ...any) { r.res.Notef(format, args...) }

// Verdict records a pass/fail judgment the experiment makes about its own
// measurements (rendered as a [PASS]/[FAIL] line under the tables).
func (r *Recorder) Verdict(id string, ok bool, detail string) { r.res.AddVerdict(id, ok, detail) }

// Experiment is one reproducible experiment.
type Experiment struct {
	ID     string // harness id, e.g. "table1/broadcast"
	Title  string
	Source string // where in the paper it comes from
	// Params is the experiment's declared parameter schema. register
	// prepends the built-in "quick" bool, so every experiment accepts the
	// quick preset without declaring it.
	Params []ParamSpec
	run    func(rec *Recorder)

	specIdx map[string]ParamSpec // name → spec, built at registration
}

var registry []Experiment

// register adds an experiment to the registry, prepending the built-in
// "quick" param and validating the schema. It panics on a duplicate ID — a
// copy-pasted init() would otherwise silently shadow lookups — and leaves
// the registry untouched when it does.
func register(e Experiment) {
	for _, x := range registry {
		if x.ID == e.ID {
			panic(fmt.Sprintf("harness: duplicate experiment id %q", e.ID))
		}
	}
	e.Params = append([]ParamSpec{quickSpec()}, e.Params...)
	e.specIdx = validateSpecs(e.ID, e.Params)
	registry = append(registry, e)
}

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Suggest returns up to five registered experiment ids that most resemble
// the (typically mistyped or partial) id: substring matches, per-segment
// matches ("broadcast" → "table1/broadcast", "lb/broadcast"), and shared
// prefixes, best first.
func Suggest(id string) []string {
	ids := make([]string, 0, len(registry))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return SuggestFrom(id, ids)
}

// SuggestFrom is the scoring core behind Suggest, shared by every
// did-you-mean surface in the tree (experiment ids, parameter names, the
// fuzz command's workload families): up to five candidates most resembling
// q, best first.
func SuggestFrom(q string, candidates []string) []string {
	q = strings.ToLower(strings.TrimSpace(q))
	if q == "" {
		return nil
	}
	type scored struct {
		id    string
		score int
	}
	var matches []scored
	for _, id := range candidates {
		cand := strings.ToLower(id)
		score := 0
		switch {
		case strings.HasPrefix(cand, q):
			score = 100
		case strings.Contains(cand, q):
			score = 80
		}
		for _, seg := range strings.Split(cand, "/") {
			if seg == q {
				score = max(score, 90)
			} else if strings.HasPrefix(seg, q) {
				score = max(score, 70)
			}
		}
		if score == 0 {
			n := 0
			for n < len(cand) && n < len(q) && cand[n] == q[n] {
				n++
			}
			// Short candidates (param names like "eps") can't reach the
			// 3-char prefix bar a typo'd last letter leaves; accept 2.
			if n >= 3 || (n >= 2 && len(cand) <= 4) {
				score = n
			}
		}
		if score > 0 {
			matches = append(matches, scored{id, score})
		}
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].score != matches[j].score {
			return matches[i].score > matches[j].score
		}
		return matches[i].id < matches[j].id
	})
	if len(matches) > 5 {
		matches = matches[:5]
	}
	out := make([]string, len(matches))
	for i, m := range matches {
		out[i] = m.id
	}
	return out
}

// Run executes the experiment and returns its structured result. The
// rendered view (aligned tables, or CSV when cfg.CSV) is written to w; pass
// nil or io.Discard to run silently.
//
// Run panics on invalid cfg.Params — callers taking untrusted parameter
// input (CLI flags, API requests) must pre-validate with Resolve and report
// the error themselves.
func (e Experiment) Run(w io.Writer, cfg Config) *result.Result {
	vals, err := e.Resolve(cfg.Params)
	if err != nil {
		panic(fmt.Sprintf("harness: %v (pre-validate with Resolve)", err))
	}
	res := result.New(e.ID, e.Title, e.Source, vals.ResultParams(cfg.Seed))
	rec := &Recorder{Cfg: cfg, res: res, expID: e.ID, specs: e.specIdx, values: vals}
	start := time.Now()
	e.run(rec)
	res.WallNS = time.Since(start).Nanoseconds()
	res.Finalize()
	if w != nil {
		res.Render(w, cfg.CSV)
	}
	return res
}

// pick returns full unless quick.
func pick[T any](quick bool, full, q T) T {
	if quick {
		return q
	}
	return full
}
