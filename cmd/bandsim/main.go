// Command bandsim runs the paper-reproduction experiments of the parbw
// library: the Table 1 separation rows, the lower-bound and simulation
// results of Sections 4–5, and the unbalanced/dynamic scheduling results of
// Section 6 of Adler, Gibbons, Matias & Ramachandran, "Modeling Parallel
// Bandwidth: Local vs. Global Restrictions" (SPAA 1997).
//
// Usage:
//
//	bandsim list                 list all experiment ids
//	bandsim run <id>...          run selected experiments
//	bandsim run all              run everything (this regenerates Table 1
//	                             and every per-theorem table)
//	bandsim trace <id>           per-superstep timeline of one experiment
//	                             (quick preset, -set applies on top)
//	bandsim serve                HTTP run service (see serve.go)
//	bandsim watch <job-id>       follow a job's live event stream (see watch.go)
//	bandsim fuzz                 seeded workload fuzzing with invariant
//	                             oracles and ddmin shrinking (see fuzz.go)
//
// Flags:
//
//	-seed N         experiment seed (default 1)
//	-quick          the "quick" preset: smaller parameter sweeps
//	-set key=value  set one experiment parameter (repeatable); names and
//	                values are validated against each experiment's declared
//	                schema, with did-you-mean suggestions on a typo
//	-csv            emit CSV instead of aligned tables
//	-json           emit structured result JSON (run only)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"parbw/internal/harness"
	"parbw/internal/service"
)

func main() {
	seed := flag.Uint64("seed", 1, "experiment seed")
	quick := flag.Bool("quick", false, `the "quick" preset: smaller parameter sweeps`)
	csv := flag.Bool("csv", false, "emit CSV")
	jsonOut := flag.Bool("json", false, "emit structured result JSON (run only)")
	sets := setFlags{}
	flag.Var(sets, "set", "set an experiment parameter as key=value (repeatable)")
	flag.Usage = usage
	args := parseArgs()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	params := map[string]string{}
	if *quick {
		for k, v := range harness.Presets["quick"] {
			params[k] = v
		}
	}
	for k, v := range sets { // explicit -set wins over the preset
		params[k] = v
	}
	cfg := harness.Config{Seed: *seed, Params: params, CSV: *csv}

	switch args[0] {
	case "trace":
		if len(args) < 2 {
			fmt.Fprintln(os.Stderr, "bandsim: trace needs an experiment id ('bandsim list')")
			os.Exit(2)
		}
		if err := runTrace(os.Stdout, args[1], *seed, sets, *csv); err != nil {
			fmt.Fprintln(os.Stderr, "bandsim:", err)
			os.Exit(1)
		}
	case "verify":
		if fails := harness.Verify(os.Stdout, *seed); fails > 0 {
			fmt.Fprintf(os.Stderr, "bandsim: %d check(s) failed\n", fails)
			os.Exit(1)
		}
		fmt.Println("\nall reproduction checks passed")
	case "export":
		dir := "results"
		if len(args) > 1 {
			dir = args[1]
		}
		if err := exportAll(dir, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bandsim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d experiment CSVs to %s/\n", len(harness.All()), dir)
	case "list":
		for _, e := range harness.All() {
			fmt.Printf("%-20s %s — %s\n", e.ID, e.Title, e.Source)
		}
	case "serve":
		if err := runServe(args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "bandsim:", err)
			os.Exit(1)
		}
	case "watch":
		if err := runWatch(args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bandsim:", err)
			os.Exit(1)
		}
	case "fuzz":
		if err := runFuzz(args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bandsim:", err)
			os.Exit(1)
		}
	case "run":
		if len(args) < 2 {
			fmt.Fprintln(os.Stderr, "bandsim: run needs experiment ids (or 'all')")
			os.Exit(2)
		}
		// Validate the whole selection — ids and parameter assignments —
		// before running any of it.
		exps, err := selectExperiments(args[1:], cfg.Params)
		if err != nil {
			var uid unknownIDError
			switch {
			case !*jsonOut:
				fmt.Fprintln(os.Stderr, "bandsim:", err)
			case errors.As(err, &uid):
				writeErrorEnvelope(os.Stdout, service.UnknownExperimentEnvelope(string(uid)))
			default:
				writeErrorEnvelope(os.Stdout, service.ParamErrorEnvelope(err))
			}
			os.Exit(1)
		}
		if err := runExperiments(os.Stdout, exps, cfg, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "bandsim:", err)
			os.Exit(1)
		}
	default:
		usage()
		os.Exit(2)
	}
}

// runExperiments is `bandsim run`: it runs exps in order and writes each
// one's rendered tables under a "### id — title (source)" header, or, with
// jsonOut, its canonical result JSON on a line of its own.
func runExperiments(w io.Writer, exps []harness.Experiment, cfg harness.Config, jsonOut bool) error {
	for _, e := range exps {
		if !jsonOut {
			fmt.Fprintf(w, "\n### %s — %s (%s)\n\n", e.ID, e.Title, e.Source)
			e.Run(w, cfg)
			continue
		}
		data, err := e.Run(nil, cfg).CanonicalJSON()
		if err != nil {
			return err
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// parseArgs parses the command line allowing global flags before or after
// the subcommand and ids ("bandsim run table1/broadcast -set p=64"), which
// the stdlib parser alone does not: it stops at the first positional, so the
// remainder is re-parsed until only positionals are left. The serve, fuzz
// and watch subcommands own their trailing flags and are left untouched.
func parseArgs() []string {
	flag.Parse()
	rest := flag.Args()
	if len(rest) > 0 && (rest[0] == "serve" || rest[0] == "fuzz" || rest[0] == "watch") {
		return rest
	}
	var out []string
	for {
		i := 0
		for i < len(rest) && !strings.HasPrefix(rest[i], "-") {
			out = append(out, rest[i])
			i++
		}
		if i == len(rest) {
			return out
		}
		flag.CommandLine.Parse(rest[i:]) // ExitOnError: exits on a bad flag
		rest = flag.Args()
	}
}

// setFlags is the repeatable -set key=value flag: later assignments to the
// same key win, matching how presets are overridden.
type setFlags map[string]string

func (s setFlags) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + s[k]
	}
	return strings.Join(parts, ",")
}

func (s setFlags) Set(v string) error {
	k, val, ok := strings.Cut(v, "=")
	k = strings.TrimSpace(k)
	if !ok || k == "" {
		return fmt.Errorf("expected key=value, got %q", v)
	}
	s[k] = strings.TrimSpace(val)
	return nil
}

// writeErrorEnvelope prints a v1 error envelope as one JSON line — the
// same {code, message, suggestions} object the HTTP API answers with, and
// encoded with the same settings, so -json consumers parse one shape
// across both surfaces.
func writeErrorEnvelope(w io.Writer, env service.ErrorEnvelope) {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(env); err != nil {
		fmt.Fprintln(os.Stderr, "bandsim:", err)
	}
}

// unknownIDError is selectExperiments' error for an id the registry does
// not know; its text is unknownIDMessage.
type unknownIDError string

func (id unknownIDError) Error() string { return unknownIDMessage(string(id)) }

// selectExperiments looks up ids ("all" alone selects every experiment) and
// resolves params against each one's schema, so that `run` and `export`
// reject a bad selection before they run or write any of it.
func selectExperiments(ids []string, params map[string]string) ([]harness.Experiment, error) {
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range harness.All() {
			ids = append(ids, e.ID)
		}
	}
	exps := make([]harness.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := harness.ByID(id)
		if !ok {
			return nil, unknownIDError(id)
		}
		if _, err := e.Resolve(params); err != nil {
			return nil, err
		}
		exps = append(exps, e)
	}
	return exps, nil
}

// unknownIDMessage formats the error for a mistyped experiment id, with the
// registry's closest matches when there are any. `run` and `trace` both
// print it.
func unknownIDMessage(id string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "unknown experiment %q\n", id)
	if sug := harness.Suggest(id); len(sug) > 0 {
		b.WriteString("did you mean:")
		for _, s := range sug {
			fmt.Fprintf(&b, "\n  %s", s)
		}
	} else {
		b.WriteString("run 'bandsim list' for all experiment ids")
	}
	return b.String()
}

func usage() {
	fmt.Fprintf(os.Stderr, `bandsim — experiments for "Modeling Parallel Bandwidth: Local vs. Global Restrictions"

usage:
  bandsim [flags] list
  bandsim [flags] run <id>... | all
  bandsim [flags] export [dir]    write every experiment as CSV (default dir: results/)
  bandsim [flags] verify          run the reproduction checklist (PASS/FAIL per claim)
  bandsim [flags] trace <id>      per-superstep timeline of one experiment at the
                                  quick preset (-set applies on top): every step
                                  of every machine the experiment drives
  bandsim serve [serve flags]     HTTP run service: job queue + sweep executor over
                                  a content-addressed run store ('serve -h' for flags)
  bandsim watch [flags] <job-id>  follow a job's live event stream (SSE) from a
                                  running serve instance ('watch -h' for flags)
  bandsim fuzz [fuzz flags]       seeded workload fuzzing: generate workloads, check
                                  the invariant oracles, ddmin-shrink any failure
                                  ('fuzz -h' for flags)

flags:
`)
	flag.PrintDefaults()
}

// exportAll writes one CSV file per experiment into dir. An assignment
// some experiment rejects fails before dir is created.
func exportAll(dir string, cfg harness.Config) error {
	exps, err := selectExperiments([]string{"all"}, cfg.Params)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg.CSV = true
	for _, e := range exps {
		name := strings.ReplaceAll(e.ID, "/", "_") + ".csv"
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		e.Run(f, cfg)
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
