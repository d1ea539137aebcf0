package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"parbw/internal/harness"
)

// Every registered experiment is a trace target. Each drives at least one
// engine machine except validate/channels, whose packet-level network
// simulator has no supersteps.
func TestRunTraceTargets(t *testing.T) {
	for _, e := range harness.All() {
		var buf bytes.Buffer
		if err := runTrace(&buf, e.ID, 1, nil, false); err != nil {
			t.Fatalf("trace %s: %v", e.ID, err)
		}
		out := buf.String()
		if !strings.Contains(out, "superstep timeline: "+e.ID) || !strings.Contains(out, "total simulated time") {
			t.Fatalf("trace %s output malformed:\n%s", e.ID, out)
		}
		if empty := strings.Contains(out, " over 0 machine steps"); empty != (e.ID == "validate/channels") {
			t.Fatalf("trace %s: empty timeline = %v:\n%s", e.ID, empty, out)
		}
	}
}

func TestRunTraceCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := runTrace(&buf, "table1/broadcast", 1, nil, true); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "#,machine,step,work,h,msgs,steps,maxload,overloads,c_m,cost,cum time\n") {
		t.Fatalf("CSV trace missing header: %q", buf.String()[:40])
	}
}

func TestRunTraceUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := runTrace(&buf, "nope", 1, nil, false); err == nil {
		t.Fatal("unknown target accepted")
	}
}

// A registered experiment id is a valid trace target: the engine observer
// records every superstep of every machine the experiment drives.
func TestRunTraceExperimentID(t *testing.T) {
	var buf bytes.Buffer
	if err := runTrace(&buf, "table1/broadcast", 1, nil, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "superstep timeline: table1/broadcast") {
		t.Fatalf("missing timeline header:\n%s", out)
	}
	// The Table 1 broadcast experiment drives both message-passing and
	// shared-memory machines; the combined timeline should name each family.
	if !strings.Contains(out, "bsp") || !strings.Contains(out, "qsm") {
		t.Fatalf("timeline missing machine families:\n%s", out)
	}
	if !strings.Contains(out, "total simulated time") {
		t.Fatalf("missing summary line:\n%s", out)
	}
}

// A mistyped trace target is an error carrying the registry's closest
// matches, the same message `bandsim run` prints, so main exits non-zero.
func TestRunTraceUnknownSuggests(t *testing.T) {
	var buf bytes.Buffer
	err := runTrace(&buf, "sort", 1, nil, false)
	if err == nil {
		t.Fatal("bare algorithm name accepted")
	}
	if err.Error() != unknownIDMessage("sort") {
		t.Fatalf("error %q is not run's unknown-id message", err)
	}
	for _, want := range []string{"did you mean", "table1/sort", "ablation/sort"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("missing %q: %v", want, err)
		}
	}
	err = runTrace(&buf, "table1/brodcast", 1, nil, false)
	if err == nil {
		t.Fatal("mistyped experiment id accepted")
	}
	if !strings.Contains(err.Error(), "table1/broadcast") {
		t.Fatalf("missing registry suggestion: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected targets wrote output:\n%s", buf.String())
	}
}

// -set assignments apply on top of the quick preset, and are validated
// against the experiment's schema before anything runs.
func TestRunTraceAppliesSet(t *testing.T) {
	trace := func(sets map[string]string) (string, error) {
		var buf bytes.Buffer
		err := runTrace(&buf, "table1/broadcast", 1, sets, false)
		return buf.String(), err
	}
	def, err := trace(nil)
	if err != nil {
		t.Fatal(err)
	}
	if same, err := trace(harness.QuickParams()); err != nil || same != def {
		t.Fatalf("restating the quick preset changed the trace (err %v)", err)
	}
	small, err := trace(map[string]string{"p": "64"})
	if err != nil {
		t.Fatal(err)
	}
	if small == def {
		t.Fatal("-set p=64 did not change the trace")
	}
	for _, bad := range []map[string]string{{"nosuch": "3"}, {"p": "banana"}} {
		if out, err := trace(bad); err == nil || out != "" {
			t.Fatalf("sets %v: err %v, output %d bytes", bad, err, len(out))
		}
	}
	if _, err := trace(map[string]string{"quik": "true"}); err == nil || !strings.Contains(err.Error(), "did you mean [quick]") {
		t.Fatalf("misspelled param: %v", err)
	}
}

func TestUnknownIDMessageSuggests(t *testing.T) {
	msg := unknownIDMessage("table1/brodcast")
	if !strings.Contains(msg, `unknown experiment "table1/brodcast"`) {
		t.Fatalf("message missing id: %q", msg)
	}
	if !strings.Contains(msg, "did you mean") || !strings.Contains(msg, "table1/broadcast") {
		t.Fatalf("message missing suggestion: %q", msg)
	}
}

func TestUnknownIDMessageNoMatches(t *testing.T) {
	msg := unknownIDMessage("zzzzqqq")
	if !strings.Contains(msg, "bandsim list") {
		t.Fatalf("fallback hint missing: %q", msg)
	}
	if strings.Contains(msg, "did you mean") {
		t.Fatalf("bogus suggestions for nonsense id: %q", msg)
	}
}

func TestExportAll(t *testing.T) {
	dir := t.TempDir()
	if err := exportAll(dir, harness.Config{Seed: 1, Params: harness.QuickParams()}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(harness.All()) {
		t.Fatalf("exported %d files, want %d", len(entries), len(harness.All()))
	}
	b, err := os.ReadFile(filepath.Join(dir, "table1_broadcast.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "p,model,measured") {
		t.Fatalf("CSV header missing: %q", string(b)[:60])
	}
}

// `bandsim -quick run all` frames every experiment under one "### " header,
// and `bandsim -quick -json run all` writes one canonical JSON line per
// experiment. That the bytes do not depend on the core count is
// harness.TestCoreCountDeterminism's job.
func TestRunExperimentsFraming(t *testing.T) {
	cfg := harness.Config{Seed: 1, Params: harness.QuickParams()}
	var text, js bytes.Buffer
	if err := runExperiments(&text, harness.All(), cfg, false); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(text.Bytes(), []byte("\n### ")); n != len(harness.All()) {
		t.Errorf("text run all has %d experiment headers, want %d", n, len(harness.All()))
	}
	if err := runExperiments(&js, harness.All(), cfg, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(js.String(), "\n"), "\n")
	if len(lines) != len(harness.All()) {
		t.Fatalf("json run all has %d lines, want %d", len(lines), len(harness.All()))
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Errorf("json run all line %d (%s) is not valid JSON", i, harness.All()[i].ID)
		}
	}
}

// The full-preset `bandsim run all` output is pinned byte for byte: the
// sha256 of the -json bytes at 1, 2 and 4 cores, and of the text bytes
// once. A change that moves any experiment's outcome, or lets one depend on
// the core count, changes a hash. The canonical bytes round model times to
// fewer digits than the last-bit differences between math.Exp's assembly
// and pure-Go paths, so the pin holds under GOARCH=386 too.
func TestRunAllOutputPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("a full-preset run of every experiment takes minutes under the race detector")
	}
	const (
		jsonSHA = "8d9ca1c6c12ebb4c1146eb6160b39b1f5ffa4257ced2883fec7b51f73d89d013"
		textSHA = "4cd270d7ad88e5b1efea1c192da050e21000d63098eabc8db7f607c0d9c3987c"
	)
	cfg := harness.Config{Seed: 1, Params: map[string]string{}}
	hash := func(jsonOut bool) string {
		h := sha256.New()
		if err := runExperiments(h, harness.All(), cfg, jsonOut); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if got := hash(true); got != jsonSHA {
			t.Errorf("GOMAXPROCS=%d: -json run all sha256 %s, want %s", procs, got, jsonSHA)
		}
	}
	if got := hash(false); got != textSHA {
		t.Errorf("text run all sha256 %s, want %s", got, textSHA)
	}
}

func TestSetFlags(t *testing.T) {
	s := setFlags{}
	for _, v := range []string{"p=64", " g = 8 ", "p=128", "eps=0.5"} {
		if err := s.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	if s["p"] != "128" || s["g"] != "8" || s["eps"] != "0.5" {
		t.Fatalf("setFlags = %v", s)
	}
	if got := s.String(); got != "eps=0.5,g=8,p=128" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "noequals", "=5"} {
		if err := s.Set(bad); err == nil {
			t.Fatalf("Set(%q) accepted", bad)
		}
	}
}

func TestExportAllRejectsBadParams(t *testing.T) {
	dir := t.TempDir()
	err := exportAll(dir, harness.Config{Seed: 1, Params: map[string]string{"bogus": "1"}})
	if err == nil {
		t.Fatal("exportAll accepted an undeclared param")
	}
}

// An assignment one experiment rejects fails the export before anything is
// written: ablation/listrank has no p, so quick + p=8 must leave neither
// the directory nor any CSV behind, and the error is that experiment's.
func TestExportAllBadSetWritesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	params := harness.QuickParams()
	params["p"] = "8"
	err := exportAll(dir, harness.Config{Seed: 1, Params: params})
	if err == nil {
		t.Fatal("exportAll accepted p, which ablation/listrank does not declare")
	}
	e, _ := harness.ByID("ablation/listrank")
	if _, want := e.Resolve(params); want == nil || err.Error() != want.Error() {
		t.Fatalf("error %q, want ablation/listrank's %v", err, want)
	}
	if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
		t.Fatalf("export left %s behind (stat: %v)", dir, serr)
	}
}
