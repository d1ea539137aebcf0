package oracle

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parbw/internal/shrink"
	"parbw/internal/work"
	"parbw/internal/workgen"
)

// corpusDir is the checked-in corpus replayed on every go test run.
const corpusDir = "testdata/corpus"

// corpusEntries builds the canonical corpus: small clean workloads from
// every generator family (regression shape — these must stay clean
// forever) plus failing counterexamples with their recorded violation
// sets, including one produced by actually running the ddmin shrinker.
// Regenerate the files with:
//
//	REGEN_CORPUS=1 go test -run TestRegenCorpus ./internal/oracle
func corpusEntries() map[string]*Entry {
	entries := map[string]*Entry{}
	pins := workgen.GenConfig{P: 4, M: 2, L: 1, Steps: 2}
	for _, fam := range workgen.Families() {
		cfg := pins
		cfg.Family = fam
		cfg.Seed = 7
		w := workgen.GenerateIR(cfg)
		entries["clean-"+string(fam)+".json"] = &Entry{
			Note:       "generated " + string(fam) + " workload, all oracles clean",
			Violations: Names(CheckIR(w)),
			Workload:   w,
		}
	}

	// A lying-totals workload run through the real shrinker: the minimal
	// counterexample is the empty workload whose declared totals are off.
	lying := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyBalls, Seed: 4})
	lying.TotalFlits += 7
	want := Names(CheckIR(lying))
	res := shrink.Minimize(lying, func(c *work.IR) bool {
		got := Names(CheckIR(c))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, shrink.Options{})
	entries["shrunk-lying-totals.json"] = &Entry{
		Note:       "ddmin-shrunk counterexample: declared totals disagree with the (empty) schedule",
		Violations: want,
		Workload:   res.Workload,
	}

	// A structurally invalid workload: destination outside the machine.
	bad := &work.IR{
		Version: work.Version, Family: string(workgen.FamilyHRel), Seed: 0,
		P: 1, M: 1, L: 1,
		Steps:      []work.Step{{Sends: []work.Send{{Proc: 0, Slot: 0, Dst: 2}}}},
		TotalSends: 1, TotalFlits: 1,
	}
	entries["invalid-dst.json"] = &Entry{
		Note:       "send to a destination outside the machine",
		Violations: Names(CheckIR(bad)),
		Workload:   bad,
	}

	// A scheduled DAG workload whose lowering dropped a dependency message:
	// the precedence layer demands a send 0 → 1 in superstep 0, but the
	// schedule carries none — the workload/precedence invariant's shape.
	missed := &work.IR{
		Version: work.Version, Family: string(workgen.FamilyDAG), Seed: 0,
		P: 2, M: 1, L: 1,
		Steps: []work.Step{{Sends: []work.Send{}}},
		Prec:  &work.Prec{Proc: []int{0, 1}, Step: []int{0, 1}, Edges: [][2]int{{0, 1}}},
	}
	entries["missed-dependency.json"] = &Entry{
		Note:       "lowered DAG schedule missing a cross-processor dependency message",
		Violations: Names(CheckIR(missed)),
		Workload:   missed,
	}
	return entries
}

// TestRegenCorpus rewrites testdata/corpus when REGEN_CORPUS=1 is set; by
// default it only asserts the checked-in files match what the current code
// would generate, so corpus drift is caught rather than silently shipped.
func TestRegenCorpus(t *testing.T) {
	for name, e := range corpusEntries() {
		data, err := e.Encode()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(corpusDir, name)
		if os.Getenv("REGEN_CORPUS") == "1" {
			if err := os.MkdirAll(corpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (REGEN_CORPUS=1 go test -run TestRegenCorpus ./internal/oracle to regenerate)", name, err)
		}
		if string(got) != string(data) {
			t.Errorf("%s: checked-in entry differs from regenerated entry", name)
		}
	}
}

// TestCorpusReplay replays every checked-in corpus entry: the oracles must
// reproduce exactly the recorded violation set, and every entry must
// round-trip byte-identically through decode/encode.
func TestCorpusReplay(t *testing.T) {
	files, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, fi := range files {
		if !strings.HasSuffix(fi.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(corpusDir, fi.Name()))
		if err != nil {
			t.Fatal(err)
		}
		e, err := DecodeEntry(data)
		if err != nil {
			t.Fatalf("%s: %v", fi.Name(), err)
		}
		enc, err := e.Encode()
		if err != nil {
			t.Fatalf("%s: %v", fi.Name(), err)
		}
		if string(enc) != string(data) {
			t.Errorf("%s: decode/encode round trip changed bytes", fi.Name())
		}
		if err := Replay(e); err != nil {
			t.Errorf("%s: %v", fi.Name(), err)
		}

		replayed++
	}
	if replayed == 0 {
		t.Fatal("corpus is empty")
	}
}
