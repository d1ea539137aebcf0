// Command benchmark measures parbw end to end on five workloads — the paper
// reproduction, cold sweeps through the HTTP service with and without a live
// event stream, cached serving, and fuzzing — at GOMAXPROCS=N, and in traced
// runs also at 1, and checks every output against wall-clock-free digests.
// The system under test runs in this process; HTTP goes over loopback
// listeners.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//
// It prints one row per workload and, last, one JSON object with the
// metrics. --trace 1 adds 1-core and span-recording operations and reports
// per-layer metrics instead of end-to-end ones. It exits 1 if any
// output is wrong. See README.md for the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"parbw/internal/harness"
)

// workloadNames is the order `--workload all` runs them in.
var workloadNames = []string{"reproduce", "sweep-cold", "sweep-stream", "serve-warm", "fuzz"}

// workload is one benchmark workload. setup builds and warms its state,
// replacing whatever an earlier setup built; op runs one operation; check
// runs once after the timed loop, adding failures and per-layer values.
type workload interface {
	setup() error
	op(k kind) sample
	check(r *report, samples []sample, extra stats)
	close()
}

// scale sizes the workloads. The benchmark runs at defaultScale; tests use a
// tiny one.
type scale struct {
	exps       []string          // experiment ids; nil is every registered experiment
	preset     map[string]string // reproduce parameters; nil is the full preset
	sweepSeeds int               // seeds per sweep job, one cell per experiment each
	warmSeeds  int               // seeds populated for serve-warm, one key per experiment each
	warmMaxMem int               // run-store memory bound for serve-warm; 0 is the store default
	fuzzSeeds  int               // seeds per fuzz batch
	pinned     bool              // testdata/digests.json holds this scale's seed-1 digests
}

var defaultScale = scale{sweepSeeds: 10, warmSeeds: 16, fuzzSeeds: 2000, pinned: true}

// experiments returns the experiments the workloads run, in id order.
func (s scale) experiments() []harness.Experiment {
	if s.exps == nil {
		return harness.All()
	}
	var out []harness.Experiment
	for _, e := range harness.All() {
		if slices.Contains(s.exps, e.ID) {
			out = append(out, e)
		}
	}
	return out
}

// request returns the experiments field of a sweep over every experiment.
func (s scale) request() []string {
	if s.exps == nil {
		return []string{"all"}
	}
	return s.exps
}

// Each workload is set up at least minSetups times and until a tenth of
// the measured time has passed; setup_s is the median. Set-ups that take a
// fraction of a second are noisy one by one, so they are repeated more.
const minSetups = 5

type options struct {
	seed    uint64
	seconds time.Duration
	scale   scale
	workdir string
	tr      *tracer // non-nil when trace
	n       int     // GOMAXPROCS of the N-core operations
}

// tracerFor returns the tracer for an operation of kind k, nil if untraced.
func (o options) tracerFor(k kind) *tracer {
	if k.traced {
		return o.tr
	}
	return nil
}

func newWorkload(name string, o options) workload {
	switch name {
	case "reproduce":
		return &reproduce{o: o}
	case "sweep-cold":
		return &sweep{o: o, name: name}
	case "sweep-stream":
		return &sweep{o: o, name: name, stream: true}
	case "serve-warm":
		return &serveWarm{o: o}
	case "fuzz":
		return &fuzz{o: o}
	}
	return nil
}

// report is the outcome of one workload run.
type report struct {
	name      string
	metrics   map[string]float64
	attempted int
	failed    int
	digest    string
	errs      []string
	row       []string // extra fields for the printed row
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

//go:embed testdata/digests.json
var pinnedJSON []byte

// pinnedDigest returns the checked-in seed-1 digest of a workload.
func pinnedDigest(name string) string {
	var m map[string]string
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		panic(fmt.Sprintf("benchmark: testdata/digests.json: %v", err))
	}
	return m[name]
}

// checker holds the digest every operation of a workload must reproduce.
type checker struct{ want string }

// match reports whether got equals the digest of the first operation.
func (c *checker) match(got string) bool {
	if c.want == "" {
		c.want = got
	}
	return got == c.want
}

// finish records the workload's digest and, for seed 1 at the default
// scale, checks it against testdata/digests.json.
func (c *checker) finish(r *report, o options) {
	r.digest = c.want
	if !o.scale.pinned || o.seed != 1 {
		return
	}
	if want := pinnedDigest(r.name); want != c.want {
		r.fail("digest %s, testdata/digests.json has %q", c.want, want)
	}
}

// measure sets a workload up, warms it with one untimed operation, runs
// operations in the rotation kindsFor gives for o.seconds, and summarizes.
func measure(name string, o options) *report {
	r := &report{name: name}
	n := runtime.GOMAXPROCS(0)
	o.n = n
	w := newWorkload(name, o)
	defer w.close()

	var setups []float64
	var spent time.Duration
	for len(setups) < minSetups || spent < o.seconds/10 {
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			r.fail("setup: %v", err)
			return r
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	warm := w.op(kind{n, false})
	r.attempted += warm.ops
	r.failed += warm.failed

	var samples []sample
	alternate(o.seconds, kindsFor(n, o.tr != nil), func(k kind) {
		// Each operation starts from a collected heap, so its time does not
		// depend on garbage the previous one left.
		runtime.GC()
		s := w.op(k)
		r.attempted += s.ops
		r.failed += s.failed
		samples = append(samples, s)
	})

	extra := stats{}
	w.check(r, samples, extra)
	if r.failed > 0 && len(r.errs) == 0 {
		r.errs = append(r.errs, fmt.Sprintf("%d operations failed or returned wrong output", r.failed))
	}
	r.metrics = summarize(samples, n, median(setups), o.tr != nil, extra)
	return r
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "how long each workload measures")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
		spans   = flag.String("spans", "", "with --trace 1, write every span as JSON to this file")
		workdir = flag.String("workdir", "", "directory for run stores (default: a new temporary directory)")
	)
	flag.Parse()
	names := workloadNames
	if *name != "all" {
		if !slices.Contains(workloadNames, *name) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames, ", "))
			os.Exit(2)
		}
		names = []string{*name}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "benchmark: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	dir, err := workDir(*workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		scale:   defaultScale,
		workdir: dir,
	}
	if *trace == 1 {
		o.tr = newTracer()
	}

	var reports []*report
	for _, n := range names {
		r := measure(n, o)
		printRow(os.Stdout, r)
		reports = append(reports, r)
	}
	os.RemoveAll(dir)
	if *spans != "" && o.tr != nil {
		if err := o.tr.write(*spans); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: write spans: %v\n", err)
		}
	}
	ok := printResult(os.Stdout, reports, o.tr != nil)
	if !ok {
		os.Exit(1)
	}
}

// workDir creates the directory run stores live under: a fresh subdirectory
// of parent, or of the system temp directory when parent is empty.
func workDir(parent string) (string, error) {
	if parent != "" {
		if err := os.MkdirAll(parent, 0o755); err != nil {
			return "", err
		}
	}
	return os.MkdirTemp(parent, "run-")
}

func printRow(w io.Writer, r *report) {
	status := "ok"
	if !r.correct() {
		status = "WRONG"
	}
	fmt.Fprintf(w, "%-13s %s digest=%.16s ops=%d failed=%d", r.name, status, r.digest, r.attempted, r.failed)
	units := map[string]string{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		units[m.name] = m.unit
	}
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, " | %s=%.6g %s", k, r.metrics[k], units[k])
	}
	for _, f := range r.row {
		fmt.Fprintf(w, " %s", f)
	}
	fmt.Fprintln(w)
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", r.name, e)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the final JSON line and reports whether every output
// was correct. With one workload the metric names are bare; with several
// they are prefixed with the workload name.
func printResult(w io.Writer, reports []*report, trace bool) bool {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range reports {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, m := range defs {
			key := m.name
			if len(reports) > 1 {
				key = r.name + "." + m.name
			}
			out.Metrics[key] = value{r.metrics[m.name], m.unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(data))
	return out.Correct
}
