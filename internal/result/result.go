// Package result defines the structured form of an experiment run. Every
// experiment in internal/harness produces a *Result — named-column tables,
// verdicts, notes, and the total simulated model time — and the ASCII-table
// and CSV renderings the CLI prints are views over that structure. Because a
// Result serializes to canonical (byte-stable) JSON, runs keyed by
// (experiment, params, seed, code version) can be content-addressed, cached
// in internal/runstore, and served by internal/service.
package result

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"parbw/internal/tablefmt"
)

// SchemaVersion is bumped whenever the JSON shape of Result changes, so
// stored runs from an older schema never alias current ones.
const SchemaVersion = 2

// Param is one resolved experiment parameter. Value is the canonical string
// encoding produced by the harness resolver (strconv.FormatInt /
// FormatFloat(-1) / FormatBool), so equal values always have equal bytes.
type Param struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Params identifies one run of one experiment: the seed plus the full
// resolved parameter set, sorted by name. Together with the experiment id and
// the harness code version it is the cache key of the run store.
type Params struct {
	Seed   uint64  `json:"seed"`
	Values []Param `json:"values"`
}

// NewParams returns Params with the given resolved values sorted by name, so
// the JSON encoding is independent of the caller's map iteration order.
func NewParams(seed uint64, values map[string]string) Params {
	ps := make([]Param, 0, len(values))
	for k, v := range values {
		ps = append(ps, Param{Name: k, Value: v})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return Params{Seed: seed, Values: ps}
}

// Get returns the value of the named param and whether it is present.
func (p Params) Get(name string) (string, bool) {
	for _, kv := range p.Values {
		if kv.Name == name {
			return kv.Value, true
		}
	}
	return "", false
}

// Canonical renders the parameter set as "k=v,k=v" in name order — the form
// folded into run-store cache keys and model fingerprints. The seed is not
// included; it is a separate key component.
func (p Params) Canonical() string {
	var b strings.Builder
	for i, kv := range p.Values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv.Name)
		b.WriteByte('=')
		b.WriteString(kv.Value)
	}
	return b.String()
}

// Verdict is a pass/fail judgment an experiment attaches to its own output
// (e.g. "the globally-limited model won every Table 1 row").
type Verdict struct {
	ID     string `json:"id"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is the structured outcome of one experiment run.
//
// WallNS is the host wall-clock time of the run. It is deliberately excluded
// from the JSON form (json:"-"): two runs of the same deterministic
// experiment must serialize to byte-identical JSON, and wall time is the one
// field that never repeats.
type Result struct {
	Schema     int              `json:"schema"`
	Experiment string           `json:"experiment"`
	Title      string           `json:"title,omitempty"`
	Source     string           `json:"source,omitempty"`
	Params     Params           `json:"params"`
	Tables     []tablefmt.Table `json:"tables"`
	Notes      []string         `json:"notes,omitempty"`
	Verdicts   []Verdict        `json:"verdicts,omitempty"`
	ModelTime  float64          `json:"model_time"`

	WallNS int64 `json:"-"`
}

// New returns an empty result for the given experiment.
func New(experiment, title, source string, params Params) *Result {
	return &Result{
		Schema:     SchemaVersion,
		Experiment: experiment,
		Title:      title,
		Source:     source,
		Params:     params,
		Tables:     []tablefmt.Table{},
	}
}

// AddTable appends a table. Its cells are the formatted strings the live
// run produced, so re-rendering is exact.
func (r *Result) AddTable(t tablefmt.Table) { r.Tables = append(r.Tables, t) }

// Notef appends a free-form note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// AddVerdict appends a verdict.
func (r *Result) AddVerdict(id string, ok bool, detail string) {
	r.Verdicts = append(r.Verdicts, Verdict{ID: id, OK: ok, Detail: detail})
}

// Finalize derives summary fields from the recorded tables: ModelTime is the
// sum of every cell in a column named "measured" that parses as a number —
// the total simulated model time the run charged across its sweeps.
func (r *Result) Finalize() {
	total := 0.0
	for _, t := range r.Tables {
		for ci, col := range t.Columns {
			if col != "measured" {
				continue
			}
			for _, row := range t.Rows {
				if ci < len(row) {
					if v, err := strconv.ParseFloat(row[ci], 64); err == nil {
						total += v
					}
				}
			}
		}
	}
	r.ModelTime = total
}

// CanonicalJSON returns the byte-stable JSON encoding of r. encoding/json
// emits struct fields in declaration order and all cell data is pre-formatted
// strings, so identical runs yield identical bytes — the property the
// content-addressed run store depends on.
func (r *Result) CanonicalJSON() ([]byte, error) {
	return json.Marshal(r)
}

// Decode parses a canonical-JSON result.
func Decode(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("result: decode: %w", err)
	}
	return &r, nil
}

// Render writes the human view of r to w: the aligned ASCII tables a live
// run prints, or CSV when csv is true. Byte-for-byte it matches what the
// pre-refactor harness emitted directly, followed by any verdict lines.
func (r *Result) Render(w io.Writer, csv bool) {
	for _, t := range r.Tables {
		if csv {
			fmt.Fprint(w, t.CSV())
		} else {
			fmt.Fprintln(w, t.String())
		}
	}
	if !csv {
		for _, n := range r.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
		for _, v := range r.Verdicts {
			status := "PASS"
			if !v.OK {
				status = "FAIL"
			}
			fmt.Fprintf(w, "[%s] %s: %s\n", status, v.ID, v.Detail)
		}
	}
}
