package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"parbw/internal/engine"
	"parbw/internal/result"
	"parbw/internal/runstore"
)

func TestRegisterDuplicatePanics(t *testing.T) {
	before := len(registry)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("registering a duplicate id did not panic")
		}
		if len(registry) != before {
			t.Fatalf("panicked registration mutated the registry: %d -> %d", before, len(registry))
		}
	}()
	register(Experiment{ID: "table1/broadcast", run: func(*Recorder) {}})
}

func TestRegisterBadSchemaPanics(t *testing.T) {
	cases := map[string][]ParamSpec{
		"dup-name":       {IntParam("p", 1, ""), IntParam("p", 2, "")},
		"reserved-quick": {BoolParam("quick", true, "")},
		"empty-name":     {IntParam("", 1, "")},
		"bad-default":    {IntParam("p", 0, "").Range(1, 8)},
	}
	for name, specs := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("schema %v registered without panic", specs)
				}
			}()
			register(Experiment{ID: "test/" + name, Params: specs, run: func(*Recorder) {}})
		})
	}
}

func TestEverySchemaHasQuick(t *testing.T) {
	for _, e := range All() {
		if len(e.Params) == 0 || e.Params[0].Name != "quick" {
			t.Fatalf("%s: schema does not lead with the built-in quick param: %+v", e.ID, e.Params)
		}
	}
}

func TestResolveDefaultsOverridesAndErrors(t *testing.T) {
	e, ok := ByID("sched/static")
	if !ok {
		t.Fatal("missing sched/static")
	}

	vals, err := e.Resolve(nil)
	if err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if vals["eps"] != "0.25" || vals["l"] != "8" || vals["quick"] != "false" {
		t.Fatalf("unexpected defaults: %v", vals)
	}

	// Spelling-normalization: different encodings of the same value resolve
	// to the same canonical strings.
	a, err := e.Resolve(map[string]string{"eps": "0.250", "p": "064", "quick": "TRUE"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Resolve(map[string]string{"eps": "2.5e-1", "p": "64", "quick": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != b.Canonical() {
		t.Fatalf("canonical forms differ: %q vs %q", a.Canonical(), b.Canonical())
	}

	var unk *UnknownParamError
	if _, err := e.Resolve(map[string]string{"epz": "1"}); !errors.As(err, &unk) {
		t.Fatalf("unknown name: got %v, want UnknownParamError", err)
	} else if len(unk.Suggestions) == 0 || unk.Suggestions[0] != "eps" {
		t.Fatalf("unknown param suggestions = %v, want [eps ...]", unk.Suggestions)
	}

	var pve *ParamValueError
	if _, err := e.Resolve(map[string]string{"eps": "lots"}); !errors.As(err, &pve) {
		t.Fatalf("bad value: got %v, want ParamValueError", err)
	}
	if _, err := e.Resolve(map[string]string{"eps": "100"}); !errors.As(err, &pve) {
		t.Fatalf("out of range: got %v, want ParamValueError", err)
	}
}

// The canonical params JSON and the derived runstore key must be byte-stable
// regardless of raw-map insertion order, iteration order, and value
// spelling — the property the content-addressed store keys on.
func TestParamsCanonicalByteStable(t *testing.T) {
	e, _ := ByID("sched/static")
	spellings := map[string][]string{
		"p":     {"64", "064", "+64"},
		"m":     {"16", "016"},
		"l":     {"4", "04"},
		"eps":   {"0.5", "0.50", "5e-1"},
		"quick": {"true", "TRUE", "1", "t"},
	}
	names := []string{"p", "m", "l", "eps", "quick"}

	var wantJSON []byte
	var wantKey string
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		order := rng.Perm(len(names))
		raw := make(map[string]string, len(names))
		for _, i := range order {
			n := names[i]
			raw[n] = spellings[n][rng.Intn(len(spellings[n]))]
		}
		vals, err := e.Resolve(raw)
		if err != nil {
			t.Fatal(err)
		}
		params := vals.ResultParams(7)
		got, err := json.Marshal(params)
		if err != nil {
			t.Fatal(err)
		}
		key := runstore.Key(runstore.KeySpec{
			Experiment: e.ID, Seed: 7, Params: params.Canonical(), Version: CodeVersion,
		})
		if trial == 0 {
			wantJSON, wantKey = got, key
			continue
		}
		if !bytes.Equal(got, wantJSON) {
			t.Fatalf("trial %d: params JSON drifted:\n%s\n%s", trial, wantJSON, got)
		}
		if key != wantKey {
			t.Fatalf("trial %d: runstore key drifted: %s vs %s", trial, wantKey, key)
		}
	}
}

// postGoldenExperiments lists experiments added after the pre-IR golden
// captures were taken; they are exempt from the byte-identity guard below
// and must not appear in the fixtures. Everything else in the registry must
// be covered by every golden file.
var postGoldenExperiments = map[string]bool{
	"dag/lower": true,
	"dag/comm":  true,
}

// Golden: with no overrides beyond the quick preset, every experiment's
// structured output (tables, notes, verdicts, model time) is byte-identical
// to the pre-refactor captures at the same seeds. The seed-1 fixture was
// generated by the literal-parameter harness before schemas existed; the
// seed-7 fixture was captured immediately before the workload-IR refactor.
// Matching both proves the schema defaults reproduce the old hardcoded
// values exactly and that routing experiments through the work IR changed
// zero output bytes.
// (The sim/crcw-pramm and validate/channels lines were re-captured when
// those experiments switched from ad-hoc seed arithmetic to labeled
// xrand.Derive sub-streams, which changes their sampled addresses/collisions
// but nothing structural.)
func TestGoldenDefaultParamsMatchSeed(t *testing.T) {
	for _, gold := range []struct {
		file string
		seed uint64
	}{
		{"testdata/golden_quick_seed1.jsonl", 1},
		{"testdata/golden_quick_seed7.jsonl", 7},
	} {
		gold := gold
		t.Run(fmt.Sprintf("seed%d", gold.seed), func(t *testing.T) {
			f, err := os.Open(gold.file)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			covered := map[string]bool{}
			sc := bufio.NewScanner(f)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				line := bytes.TrimSpace(sc.Bytes())
				if len(line) == 0 {
					continue
				}
				want, err := result.Decode(line)
				if err != nil {
					t.Fatal(err)
				}
				if postGoldenExperiments[want.Experiment] {
					t.Fatalf("%s is allowlisted as post-golden but appears in %s — remove it from the allowlist", want.Experiment, gold.file)
				}
				covered[want.Experiment] = true
				e, ok := ByID(want.Experiment)
				if !ok {
					t.Fatalf("golden references unknown experiment %q", want.Experiment)
				}
				got := e.Run(io.Discard, Config{Seed: gold.seed, Params: QuickParams()})
				for field, pair := range map[string][2]any{
					"tables":     {got.Tables, want.Tables},
					"notes":      {got.Notes, want.Notes},
					"verdicts":   {got.Verdicts, want.Verdicts},
					"model_time": {got.ModelTime, want.ModelTime},
				} {
					gj, _ := json.Marshal(pair[0])
					wj, _ := json.Marshal(pair[1])
					if !bytes.Equal(gj, wj) {
						t.Errorf("%s: %s diverged from pre-refactor golden:\n got %s\nwant %s",
							want.Experiment, field, gj, wj)
					}
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			for _, e := range All() {
				if !covered[e.ID] && !postGoldenExperiments[e.ID] {
					t.Errorf("experiment %s is neither captured in %s nor allowlisted as post-golden", e.ID, gold.file)
				}
			}
		})
	}
}

// Overriding a sweep-sentinel param collapses the sweep to a single point,
// and distinct assignments produce distinct canonical params.
func TestSweepOverrideCollapses(t *testing.T) {
	e, _ := ByID("table1/broadcast")
	res := e.Run(io.Discard, Config{Seed: 1, Params: map[string]string{"p": "64", "g": "8"}})
	if len(res.Tables) != 1 {
		t.Fatalf("expected 1 table, got %d", len(res.Tables))
	}
	if n := len(res.Tables[0].Rows); n != 4 {
		t.Fatalf("expected a single p point (4 model rows), got %d rows", n)
	}
	if v, _ := res.Params.Get("p"); v != "64" {
		t.Fatalf("result params lost the override: %+v", res.Params)
	}
	base := e.Run(io.Discard, Config{Seed: 1})
	if base.Params.Canonical() == res.Params.Canonical() {
		t.Fatal("different assignments share a canonical params string")
	}
}

// Observed runs proceed concurrently and each observer sees exactly its own
// run's supersteps. Each observer holds its run at the first step until the
// other run has reached its own first step, so both runs are mid-flight at
// once; a process-wide lock around observed runs would deadlock here, which
// the timeout turns into a failure.
func TestObserverScopedUnderConcurrentRuns(t *testing.T) {
	runs := []struct {
		id   string
		seed uint64
	}{{"table1/parity", 5}, {"table1/onetoall", 9}}
	record := func(id string, seed uint64, first func()) []engine.StepStats {
		e, _ := ByID(id)
		var steps []engine.StepStats
		e.Run(io.Discard, Config{Seed: seed, Params: QuickParams(),
			Observer: engine.ObserverFunc(func(st engine.StepStats) {
				if len(steps) == 0 && first != nil {
					first()
				}
				st.Hist = nil // valid only inside the callback
				steps = append(steps, st)
			})})
		return steps
	}
	solo := make([][]engine.StepStats, len(runs))
	for i, r := range runs {
		if solo[i] = record(r.id, r.seed, nil); len(solo[i]) == 0 {
			t.Fatalf("%s: observer saw no supersteps", r.id)
		}
	}

	reached := []chan struct{}{make(chan struct{}), make(chan struct{})}
	got := make([][]engine.StepStats, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = record(r.id, r.seed, func() {
				close(reached[i])
				select {
				case <-reached[1-i]:
				case <-time.After(10 * time.Second):
					t.Errorf("%s: the other observed run never reached its first step", r.id)
				}
			})
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if !reflect.DeepEqual(got[i], solo[i]) {
			t.Errorf("%s: concurrent run observed %d steps, solo run %d; sequences differ",
				r.id, len(got[i]), len(solo[i]))
		}
	}
}

// Every machine an experiment constructs carries the run's observer: the
// observer sees as many supersteps as the process-wide engine counters
// advance by.
func TestObserverSeesEveryMachine(t *testing.T) {
	for _, e := range All() {
		n := uint64(0)
		before := engine.GlobalCounters().Supersteps
		e.Run(io.Discard, Config{Seed: 1, Params: QuickParams(),
			Observer: engine.ObserverFunc(func(engine.StepStats) { n++ })})
		if d := engine.GlobalCounters().Supersteps - before; n != d {
			t.Errorf("%s: observer saw %d supersteps, the engine committed %d", e.ID, n, d)
		}
	}
}

func TestRunPanicsOnInvalidParams(t *testing.T) {
	e, _ := ByID("table1/broadcast")
	defer func() {
		if recover() == nil {
			t.Fatal("Run with an undeclared param did not panic")
		}
	}()
	e.Run(io.Discard, Config{Seed: 1, Params: map[string]string{"bogus": "1"}})
}

func TestRecorderAccessorPanics(t *testing.T) {
	e, _ := ByID("table1/broadcast")
	vals, _ := e.Resolve(nil)
	rec := &Recorder{expID: e.ID, specs: e.specIdx, values: vals}
	for name, fn := range map[string]func(){
		"undeclared": func() { rec.Int("nope") },
		"wrong-kind": func() { rec.Float("p") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		})
	}
}

func TestPresetsQuick(t *testing.T) {
	if !strings.EqualFold(Presets["quick"]["quick"], "true") {
		t.Fatalf("quick preset = %v", Presets["quick"])
	}
	qp := QuickParams()
	qp["quick"] = "mutated"
	if Presets["quick"]["quick"] != "true" {
		t.Fatal("QuickParams returned a shared map")
	}
}
