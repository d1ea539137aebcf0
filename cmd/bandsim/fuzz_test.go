package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parbw/internal/harness"
	"parbw/internal/oracle"
	"parbw/internal/runstore"
	"parbw/internal/service"
)

// Two fuzz runs with identical flags must produce byte-identical output —
// the acceptance criterion behind checking fuzz output into CI logs.
func TestFuzzOutputByteIdentical(t *testing.T) {
	run := func(extra ...string) string {
		var buf bytes.Buffer
		if err := runFuzz(append([]string{"-seeds", "200"}, extra...), &buf); err != nil {
			t.Fatalf("runFuzz: %v", err)
		}
		return buf.String()
	}
	if a, b := run("-json"), run("-json"); a != b {
		t.Fatal("two -json runs with identical flags differ")
	}
	if a, b := run(), run(); a != b {
		t.Fatal("two text runs with identical flags differ")
	}
	// The JSON summary line reports a clean run.
	var sum fuzzSummary
	out := strings.TrimSpace(run("-json"))
	last := out[strings.LastIndexByte(out, '\n')+1:]
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		t.Fatalf("summary line %q: %v", last, err)
	}
	if sum.Failures != 0 || sum.Seeds != 200 || sum.TotalFlits == 0 {
		t.Fatalf("unexpected summary %+v", sum)
	}
}

// The end-to-end acceptance scenario: with a deliberately broken invariant
// (test-only hook), `bandsim fuzz` finds the failures, shrinks each to at
// most 3 supersteps, and writes corpus entries that replay cleanly.
func TestFuzzBrokenInvariantShrinksAndWritesCorpus(t *testing.T) {
	oracle.BreakForTest = "workload/conserve"
	defer func() { oracle.BreakForTest = "" }()

	dir := t.TempDir()
	var buf bytes.Buffer
	err := runFuzz([]string{"-seeds", "6", "-json", "-corpus", dir}, &buf)
	if err == nil {
		t.Fatal("broken invariant produced no failure exit")
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var sum fuzzSummary
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); jerr != nil {
		t.Fatalf("summary: %v", jerr)
	}
	if sum.Failures == 0 {
		t.Fatal("no failures reported")
	}
	for _, line := range lines[:len(lines)-1] {
		var f fuzzFailure
		if jerr := json.Unmarshal([]byte(line), &f); jerr != nil {
			t.Fatalf("failure line %q: %v", line, jerr)
		}
		if f.Shrunk == nil {
			t.Fatalf("seed %d: no shrunk workload", f.Seed)
		}
		if len(f.Shrunk.Steps) > 3 {
			t.Fatalf("seed %d: shrunk to %d supersteps, want <= 3", f.Seed, len(f.Shrunk.Steps))
		}
		if f.Nondeterministic != 0 {
			t.Fatalf("seed %d: %d nondeterministic shrink candidates", f.Seed, f.Nondeterministic)
		}
	}

	// Every corpus entry decodes and replays to exactly its recorded
	// violation set (the hook is still active, so the recorded failure
	// reproduces).
	files, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(files) != sum.Failures {
		t.Fatalf("%d corpus files for %d failures", len(files), sum.Failures)
	}
	for _, fi := range files {
		data, rerr := os.ReadFile(filepath.Join(dir, fi.Name()))
		if rerr != nil {
			t.Fatal(rerr)
		}
		e, derr := oracle.DecodeEntry(data)
		if derr != nil {
			t.Fatalf("%s: %v", fi.Name(), derr)
		}
		if perr := oracle.Replay(e); perr != nil {
			t.Fatalf("%s: replay: %v", fi.Name(), perr)
		}
	}
}

func TestFuzzRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := runFuzz([]string{"-seeds", "0"}, &buf); err == nil {
		t.Fatal("zero seeds accepted")
	}
	if err := runFuzz([]string{"-family", "nope"}, &buf); err == nil {
		t.Fatal("unknown family accepted")
	}
	if err := runFuzz([]string{"stray"}, &buf); err == nil {
		t.Fatal("positional argument accepted")
	}
}

// A mistyped -family gets the same did-you-mean shape mistyped experiment
// ids get, via the shared harness.SuggestFrom matcher.
func TestFuzzUnknownFamilySuggests(t *testing.T) {
	var buf bytes.Buffer
	err := runFuzz([]string{"-family", "ball", "-seeds", "1"}, &buf)
	if err == nil {
		t.Fatal("near-miss family accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown family "ball"`) {
		t.Fatalf("message missing family name: %q", msg)
	}
	if !strings.Contains(msg, "did you mean") || !strings.Contains(msg, "balls") {
		t.Fatalf("message missing suggestion: %q", msg)
	}

	// Nonsense gets the full family list instead of bogus suggestions.
	err = runFuzz([]string{"-family", "zzz", "-seeds", "1"}, &buf)
	if err == nil {
		t.Fatal("nonsense family accepted")
	}
	msg = err.Error()
	if strings.Contains(msg, "did you mean") {
		t.Fatalf("bogus suggestions for nonsense family: %q", msg)
	}
	if !strings.Contains(msg, "hrel, dag, balls") {
		t.Fatalf("fallback family list missing: %q", msg)
	}
}

// The CLI's -json error envelope must be byte-identical to the v1 HTTP
// API's response for the same mistake — same codes, same messages, same
// did-you-mean suggestion payloads.
func TestCLIAndAPIErrorEnvelopeParity(t *testing.T) {
	st, err := runstore.Open(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) []byte {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// Unknown experiment: the API response and the CLI's envelope for the
	// same typo must match byte for byte, suggestions included.
	api := post(`{"experiments":["table1/brodcast"]}`)
	var cli bytes.Buffer
	writeErrorEnvelope(&cli, service.UnknownExperimentEnvelope("table1/brodcast"))
	if !bytes.Equal(api, cli.Bytes()) {
		t.Fatalf("unknown-experiment envelopes differ:\napi %s\ncli %s", api, cli.Bytes())
	}
	var env service.ErrorEnvelope
	if err := json.Unmarshal(api, &env); err != nil || len(env.Error.Suggestions) == 0 {
		t.Fatalf("envelope %s carries no suggestions (err %v)", api, err)
	}

	// Unknown parameter: the CLI reaches the envelope through Resolve, the
	// API through Submit; both must serialize identically.
	api = post(`{"experiments":["sched/static"],"params":{"epz":0.5}}`)
	e, ok := harness.ByID("sched/static")
	if !ok {
		t.Fatal("sched/static not registered")
	}
	_, rerr := e.Resolve(map[string]string{"epz": "0.5"})
	if rerr == nil {
		t.Fatal("epz resolved")
	}
	cli.Reset()
	writeErrorEnvelope(&cli, service.ParamErrorEnvelope(rerr))
	if !bytes.Equal(api, cli.Bytes()) {
		t.Fatalf("unknown-param envelopes differ:\napi %s\ncli %s", api, cli.Bytes())
	}
	if err := json.Unmarshal(api, &env); err != nil || len(env.Error.Suggestions) == 0 || env.Error.Suggestions[0] != "eps" {
		t.Fatalf("envelope %s: want suggestions [eps ...] (err %v)", api, err)
	}
}

// fuzzGolden compares got against a checked-in golden file, or rewrites the
// file when REGEN_FUZZ_GOLDEN=1 is set:
//
//	REGEN_FUZZ_GOLDEN=1 go test -run TestFuzzGolden ./cmd/bandsim
func fuzzGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("REGEN_FUZZ_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from golden:\n got %s\nwant %s", path, got, want)
	}
}

// The fuzz CLI's output bytes are pinned: a clean 200-seed run, and a run
// against the deliberately broken conservation invariant, whose stdout
// carries every shrunk counterexample and whose -corpus directory carries
// one entry per failing seed.
func TestFuzzGoldenClean(t *testing.T) {
	var buf bytes.Buffer
	if err := runFuzz([]string{"-seeds", "200", "-json"}, &buf); err != nil {
		t.Fatalf("runFuzz: %v", err)
	}
	fuzzGolden(t, "testdata/fuzz_seeds200.jsonl", buf.Bytes())
}

func TestFuzzGoldenBrokenConserve(t *testing.T) {
	oracle.BreakForTest = "workload/conserve"
	defer func() { oracle.BreakForTest = "" }()

	dir := t.TempDir()
	var buf bytes.Buffer
	if err := runFuzz([]string{"-seeds", "6", "-json", "-corpus", dir}, &buf); err == nil {
		t.Fatal("broken invariant produced no failure exit")
	}
	fuzzGolden(t, "testdata/fuzz_broken_conserve/stdout.jsonl", buf.Bytes())

	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	golden := "testdata/fuzz_broken_conserve/corpus"
	if os.Getenv("REGEN_FUZZ_GOLDEN") != "1" {
		want, err := os.ReadDir(golden)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(files) {
			t.Fatalf("%d corpus files written, golden has %d", len(files), len(want))
		}
	}
	for _, fi := range files {
		data, err := os.ReadFile(filepath.Join(dir, fi.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fuzzGolden(t, filepath.Join(golden, fi.Name()), data)
	}
}
