// The fuzz subcommand: generate seeded workloads, check every invariant
// oracle against each, and ddmin-shrink whatever fails. Seeds fan out over
// a workpool but results are reported in seed order from a seed-indexed
// slice, so two runs with the same flags produce byte-identical output
// regardless of scheduling.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"parbw/internal/harness"
	"parbw/internal/oracle"
	"parbw/internal/shrink"
	"parbw/internal/work"
	"parbw/internal/workgen"
	"parbw/internal/workpool"
)

// fuzzFailure is one reported failing seed — one JSON line under -json.
type fuzzFailure struct {
	Seed             uint64             `json:"seed"`
	Family           string             `json:"family"`
	Violations       []oracle.Violation `json:"violations"`
	Shrunk           *work.IR           `json:"shrunk,omitempty"`
	ShrinkEvals      int                `json:"shrink_evals,omitempty"`
	Nondeterministic int                `json:"nondeterministic,omitempty"`
}

// fuzzSummary is the final line of every fuzz run.
type fuzzSummary struct {
	Version    int      `json:"version"`
	Seeds      int      `json:"seeds"`
	SeedBase   uint64   `json:"seed_base"`
	Families   []string `json:"families"`
	TotalSends int      `json:"total_sends"`
	TotalFlits int      `json:"total_flits"`
	Failures   int      `json:"failures"`
}

// runFuzz implements `bandsim fuzz`. It writes all run output to stdout
// (stderr is reserved for flag errors) and returns a non-nil error when
// any seed violated an invariant, which main turns into exit status 1.
func runFuzz(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	seeds := fs.Int("seeds", 256, "number of seeds to run")
	seedBase := fs.Uint64("seed-base", 1, "first seed; seed i of the run is seed-base+i")
	family := fs.String("family", "all", "workload family: hrel, dag, balls, or all (cycled per seed)")
	doShrink := fs.Bool("shrink", true, "ddmin-shrink failing workloads to minimal counterexamples")
	corpusDir := fs.String("corpus", "", "write failing (shrunk) workloads as corpus entries into this directory")
	jsonOut := fs.Bool("json", false, "emit JSON lines instead of text")
	workers := fs.Int("workers", 0, "parallel oracle workers (0 = GOMAXPROCS)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), `usage: bandsim fuzz [-seeds N] [-seed-base S] [-family F] [-shrink] [-corpus dir] [-json] [-workers N]

Generates N seeded workloads, checks every invariant oracle against each,
and shrinks failures with ddmin. Same flags => byte-identical output.`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("fuzz takes no positional arguments, got %q", fs.Args())
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be positive, got %d", *seeds)
	}
	fams := workgen.Families()
	if *family != "all" {
		f, err := workgen.ParseFamily(*family)
		if err != nil {
			return errors.New(unknownFamilyMessage(*family))
		}
		fams = []workgen.Family{f}
	}

	// Phase 1 — parallel generate + check. Each seed owns one cell of the
	// results slice, so the fan-out leaves no scheduling fingerprint.
	type cell struct {
		w  *work.IR
		vs []oracle.Violation
	}
	cells := make([]cell, *seeds)
	workpool.New(*workers).For(*seeds, func(i int) {
		w := workgen.GenerateIR(workgen.GenConfig{
			Family: fams[i%len(fams)],
			Seed:   *seedBase + uint64(i),
		})
		cells[i] = cell{w: w, vs: oracle.CheckIR(w)}
	})

	// Phase 2 — sequential, seed-ordered report; shrinking runs here so the
	// (rare) failing path is deterministic too.
	enc := json.NewEncoder(stdout)
	enc.SetEscapeHTML(false)
	sum := fuzzSummary{Version: work.Version, Seeds: *seeds, SeedBase: *seedBase}
	for _, f := range fams {
		sum.Families = append(sum.Families, string(f))
	}
	var failures []fuzzFailure
	for i, c := range cells {
		sends, flits := c.w.CountSends()
		sum.TotalSends += sends
		sum.TotalFlits += flits
		if len(c.vs) == 0 {
			continue
		}
		fail := fuzzFailure{
			Seed:       *seedBase + uint64(i),
			Family:     c.w.Family,
			Violations: c.vs,
		}
		if *doShrink {
			want := oracle.Names(c.vs)
			// The predicate pins the exact failure mode: a candidate that
			// fails differently, or stops failing, is rejected.
			res := shrink.Minimize(c.w, func(cand *work.IR) bool {
				return slices.Equal(oracle.Names(oracle.CheckIR(cand)), want)
			}, shrink.Options{})
			fail.Shrunk = res.Workload
			fail.ShrinkEvals = res.Evals
			fail.Nondeterministic = res.Nondeterministic
		}
		failures = append(failures, fail)
		if *jsonOut {
			if err := enc.Encode(fail); err != nil {
				return err
			}
		} else {
			fmt.Fprintf(stdout, "fuzz: seed %d (%s): violations %s\n",
				fail.Seed, fail.Family, strings.Join(oracle.Names(fail.Violations), ","))
			for _, v := range fail.Violations {
				fmt.Fprintf(stdout, "  %s: %s\n", v.Invariant, v.Detail)
			}
			if fail.Shrunk != nil {
				ssends, _ := fail.Shrunk.CountSends()
				fmt.Fprintf(stdout, "  shrunk to %d step(s), %d send(s) in %d evals\n",
					len(fail.Shrunk.Steps), ssends, fail.ShrinkEvals)
			}
		}
	}
	sum.Failures = len(failures)

	if *corpusDir != "" && len(failures) > 0 {
		if err := writeCorpus(*corpusDir, failures); err != nil {
			return err
		}
	}

	if *jsonOut {
		if err := enc.Encode(sum); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "fuzz: %d seeds (base %d), families %s: %d violation(s), %d sends / %d flits generated\n",
			sum.Seeds, sum.SeedBase, strings.Join(sum.Families, ","), sum.Failures, sum.TotalSends, sum.TotalFlits)
	}
	if len(failures) > 0 {
		return fmt.Errorf("fuzz: %d of %d seeds violated invariants", len(failures), *seeds)
	}
	return nil
}

// unknownFamilyMessage formats the error for a mistyped -family value,
// reusing the harness's did-you-mean matcher over the family names plus the
// "all" sentinel — the same shape unknownIDMessage gives mistyped
// experiment ids.
func unknownFamilyMessage(name string) string {
	candidates := []string{"all"}
	for _, f := range workgen.Families() {
		candidates = append(candidates, string(f))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz: unknown family %q", name)
	if sug := harness.SuggestFrom(name, candidates); len(sug) > 0 {
		b.WriteString("\ndid you mean:")
		for _, s := range sug {
			fmt.Fprintf(&b, "\n  %s", s)
		}
	} else {
		fmt.Fprintf(&b, " (want %s, or all)", strings.Join(familyNames(), ", "))
	}
	return b.String()
}

func familyNames() []string {
	out := make([]string, 0, len(workgen.Families()))
	for _, f := range workgen.Families() {
		out = append(out, string(f))
	}
	return out
}

// writeCorpus writes one oracle corpus entry per failure, named
// <family>-seed<seed>.json, shrunk when shrinking ran. Entries replay
// under go test via the corpus replay test at the repository root.
func writeCorpus(dir string, failures []fuzzFailure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range failures {
		w := f.Shrunk
		if w == nil {
			// Re-generate: the checked workload itself was not retained.
			w = workgen.GenerateIR(workgen.GenConfig{Family: workgen.Family(f.Family), Seed: f.Seed})
		}
		e := &oracle.Entry{
			Note:       fmt.Sprintf("bandsim fuzz: family=%s seed=%d", f.Family, f.Seed),
			Violations: oracle.Names(f.Violations),
			Workload:   w,
		}
		data, err := e.Encode()
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s-seed%d.json", f.Family, f.Seed)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
