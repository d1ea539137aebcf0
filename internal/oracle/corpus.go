package oracle

import (
	"encoding/json"
	"fmt"
	"slices"

	"parbw/internal/work"
)

// Entry is one corpus case: a (usually shrunk) workload plus the invariant
// names it is expected to violate when replayed. An empty Violations list
// records a workload that must stay clean forever — the regression shape
// for fixed bugs. Entries are checked into testdata/corpus/ and replayed by
// go test; see Replay.
type Entry struct {
	Note       string   `json:"note,omitempty"`
	Violations []string `json:"violations"`
	Workload   *work.IR `json:"workload"`
}

// Encode returns the canonical byte encoding of the entry (compact JSON in
// declaration order, newline-terminated), byte-stable like work.IR.Encode.
func (e *Entry) Encode() ([]byte, error) {
	if e.Violations == nil {
		e.Violations = []string{}
	}
	b, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("oracle: encode entry: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeEntry parses a corpus entry.
func DecodeEntry(data []byte) (*Entry, error) {
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("oracle: decode entry: %w", err)
	}
	if e.Workload == nil {
		return nil, fmt.Errorf("oracle: corpus entry has no workload")
	}
	if e.Workload.Version != work.Version {
		return nil, fmt.Errorf("oracle: corpus entry has unsupported workload version %d", e.Workload.Version)
	}
	return &e, nil
}

// Names extracts the unique invariant names from a violation list,
// preserving first-seen order — the form recorded in corpus entries.
func Names(vs []Violation) []string {
	names := []string{}
	seen := map[string]bool{}
	for _, v := range vs {
		if !seen[v.Invariant] {
			seen[v.Invariant] = true
			names = append(names, v.Invariant)
		}
	}
	return names
}

// Replay re-runs the oracles on the entry's workload and returns an error
// if the observed violation set differs from the recorded one — either a
// regression (new violations) or a stale entry (recorded violations no
// longer reproduced).
func Replay(e *Entry) error {
	got := Names(CheckIR(e.Workload))
	want := e.Violations
	if want == nil {
		want = []string{}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("oracle: replay: violations %v, entry records %v", got, want)
	}
	return nil
}
