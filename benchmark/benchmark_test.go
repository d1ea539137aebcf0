package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"parbw/internal/harness"
)

// tinyScale keeps every workload to a fraction of a second. Its experiments
// include one whose output depends on goroutine interleaving.
var tinyScale = scale{
	exps:   []string{"async/backpressure", "table1/broadcast", "table1/parity"},
	preset: harness.QuickParams(), sweepSeeds: 2, warmSeeds: 4, warmMaxMem: 4, fuzzSeeds: 50,
}

// TestWorkloadsSmoke runs every workload at tiny scale, plain and traced,
// and checks the metrics each mode must emit, self times, and that the
// digests agree wherever the outputs must be identical.
func TestWorkloadsSmoke(t *testing.T) {
	digests := map[string]string{}
	for _, traced := range []bool{false, true} {
		o := options{seed: 1, seconds: 50 * time.Millisecond, scale: tinyScale, workdir: t.TempDir()}
		defs := endToEnd
		if traced {
			o.tr = newTracer()
			defs = perLayer
		}
		for _, name := range workloadNames {
			start := time.Now()
			r := measure(name, o)
			t.Logf("%s traced=%v: %v", name, traced, time.Since(start).Round(time.Millisecond))
			if !r.correct() || r.attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d errors %v", name, traced, r.correct(), r.attempted, r.errs)
			}
			if len(r.metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(r.metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := r.metrics[m.name]
				if !ok || m.unit == "" {
					t.Errorf("%s traced=%v: metric %s missing or without unit", name, traced, m.name)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, v)
				}
				if v < 0 {
					t.Errorf("%s traced=%v: %s = %v, want >= 0", name, traced, m.name, v)
				}
			}
			if r.digest == "" {
				t.Errorf("%s traced=%v: no digest", name, traced)
			}
			if d, ok := digests[name]; ok && d != r.digest {
				t.Errorf("%s: traced digest %s != plain digest %s", name, r.digest, d)
			}
			digests[name] = r.digest
		}
		if traced {
			for name, ns := range selfTimes(o.tr.since(0)) {
				if ns < 0 {
					t.Errorf("span %s: self time %d ns < 0", name, ns)
				}
			}
		}
	}
	if digests["sweep-stream"] != digests["sweep-cold"] {
		t.Errorf("sweep-stream digest %s != sweep-cold digest %s", digests["sweep-stream"], digests["sweep-cold"])
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 3, Name: "c", Start: 35, End: 45},
	}
	got := selfTimes(spans)
	want := map[string]int64{"root": 100 - 50 - 10, "a": 30 + 30 - 10, "b": 30, "c": 10}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("self time of %s = %d, want %d", name, got[name], ns)
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the code: the workloads
// and metrics it lists are exactly the ones the benchmark runs and emits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string   `json:"name"`
			Unit   string   `json:"unit"`
			Better string   `json:"better"`
			Bound  *float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(b.Workloads))
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(b.EndToEnd))
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", b.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}

	var workloads []string
	for _, w := range b.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
		workloads = append(workloads, w.Name)
	}
	if !slices.Equal(workloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", workloads, workloadNames)
	}

	units := func(ms []metric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.name] = m.unit
		}
		return out
	}
	check := func(kind, name, unit, better string, code map[string]string) {
		checkName(name)
		if !unitRE.MatchString(unit) || (better != "lower" && better != "higher") {
			t.Errorf("%s metric %s: unit %q better %q", kind, name, unit, better)
		}
		if code[name] != unit {
			t.Errorf("%s metric %s: BENCHMARK.json unit %q, code emits %q", kind, name, unit, code[name])
		}
		delete(code, name)
	}
	e2e := units(endToEnd)
	for _, m := range b.EndToEnd {
		check("end-to-end", m.Name, m.Unit, m.Better, e2e)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
		}
	}
	if len(e2e) > 0 {
		t.Errorf("end-to-end metrics emitted but not in BENCHMARK.json: %v", e2e)
	}
	layers := units(perLayer)
	for _, m := range b.PerLayer {
		check("per-layer", m.Name, m.Unit, m.Better, layers)
	}
	if len(layers) > 0 {
		t.Errorf("per-layer metrics emitted but not in BENCHMARK.json: %v", layers)
	}
	if !slices.Equal(b.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want [benchmark]", b.Paths)
	}
}

// TestPinnedDigests checks that testdata/digests.json pins every workload.
func TestPinnedDigests(t *testing.T) {
	for _, name := range workloadNames {
		if len(pinnedDigest(name)) != 64 {
			t.Errorf("testdata/digests.json has no digest for %s", name)
		}
	}
}
