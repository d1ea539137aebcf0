package main

// In-memory spans recorded at the layer boundaries the benchmark can reach
// from outside the program: its own calls into harness, result, workgen and
// oracle, plus two wrappers it installs on the system under test — a
// service.Runner and a fault.FS under the run store. Untraced runs install
// neither.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"parbw/internal/fault"
	"parbw/internal/harness"
	"parbw/internal/result"
	"parbw/internal/runstore"
	"parbw/internal/service"
)

// Span names, one per layer boundary.
const (
	spanRunAll    = "run-all"          // reproduce: one full `run all` pass
	spanFuzzBatch = "fuzz.batch"       // fuzz: one batch of seeds
	spanHTTP      = "service.http"     // one POST /v1/runs round trip
	spanSSE       = "service.sse"      // one streamed job: POST + events read to the end
	spanResolve   = "harness.resolve"  // Experiment.Resolve
	spanRun       = "harness.run"      // Experiment.Run / service.Runner
	spanEncode    = "result.encode"    // Result.CanonicalJSON
	spanRead      = "runstore.read"    // fault.FS ReadFile under the run store
	spanWrite     = "runstore.write"   // fault.FS mkdir/create/write/close/rename
	spanGenerate  = "workgen.generate" // workgen.GenerateIR
	spanCheck     = "oracle.check"     // oracle.CheckIR
)

// spanNames lists every span name; each gets a self_ms.<name> metric.
var spanNames = []string{
	spanRunAll, spanFuzzBatch, spanHTTP, spanSSE, spanResolve, spanRun, spanEncode,
	spanRead, spanWrite, spanGenerate, spanCheck,
}

// span is one timed interval. Req groups the spans of one operation (a pass,
// a job, a request, a batch); Parent is the id of the enclosing span, 0 for
// an operation's root. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"` // experiment id or fs op
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return max(s.End-s.Start, 0) }

// tracer holds every span of a run in memory. A nil *tracer records nothing,
// so untraced code paths call the same methods.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	reqs  int
	root  int            // parent for spans no key binds: the running operation's root
	byKey map[string]int // run-store key → span doing that key's work
}

func newTracer() *tracer { return &tracer{t0: time.Now(), byKey: map[string]int{}} }

// open starts a span under parent (0 starts a new operation) and returns its id.
func (t *tracer) open(name, label string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	var req int
	if parent > 0 {
		req = t.spans[parent-1].Req
	} else {
		t.reqs++
		req = t.reqs
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Label: label, Start: now})
	return len(t.spans)
}

// close ends span id, adding n bytes to it.
func (t *tracer) close(id int, n int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Bytes += n
	if id == t.root {
		t.root = 0
	}
	t.mu.Unlock()
}

// openRoot starts an operation's root span and makes it the default parent.
func (t *tracer) openRoot(name string) int {
	id := t.open(name, "", 0)
	if t != nil {
		t.mu.Lock()
		t.root = id
		t.mu.Unlock()
	}
	return id
}

// bind makes span id the parent of later spans doing the work of key.
func (t *tracer) bind(key string, id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.byKey[key] = id
	t.mu.Unlock()
}

func (t *tracer) unbind(key string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.byKey, key)
	t.mu.Unlock()
}

// parent returns the span bound to key, or the running operation's root.
func (t *tracer) parent(key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byKey[key]; ok {
		return id
	}
	return t.root
}

// mark returns the number of spans recorded so far; since(mark) returns the
// spans recorded after it.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the summed self time in nanoseconds: each
// span's duration minus the part of it covered by the union of its children.
// spans must hold every child of every span it holds.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// runKey is the run-store key the service derives for one runner call.
func runKey(id string, cfg harness.Config) string {
	e, ok := harness.ByID(id)
	if !ok {
		return ""
	}
	vals, err := e.Resolve(cfg.Params)
	if err != nil {
		return ""
	}
	return runstore.Key(runstore.KeySpec{Experiment: id, Seed: cfg.Seed, Params: vals.Canonical(), Version: harness.CodeVersion})
}

// runner wraps service.DefaultRunner with a harness.run span under the
// running operation's root.
func (t *tracer) runner() service.Runner {
	return func(id string, cfg harness.Config) (*result.Result, error) {
		sp := t.open(spanRun, id, t.parent(""))
		defer t.close(sp, 0)
		return service.DefaultRunner(id, cfg)
	}
}

// fs wraps the OS filesystem under a run store with runstore spans. A span is
// parented to whatever is bound to the key named by the file path.
func (t *tracer) fs() fault.FS { return &tracedFS{FS: fault.OS, t: t} }

type tracedFS struct {
	fault.FS
	t *tracer
}

// pathKey extracts the run-store key from an entry or temp-file path.
func pathKey(path string) string {
	base := strings.TrimPrefix(filepath.Base(path), ".")
	if len(base) >= 64 && runstore.ValidKey(base[:64]) {
		return base[:64]
	}
	return ""
}

func (f *tracedFS) span(name, op, path string) int {
	return f.t.open(name, op, f.t.parent(pathKey(path)))
}

func (f *tracedFS) ReadFile(name string) ([]byte, error) {
	sp := f.span(spanRead, "read", name)
	data, err := f.FS.ReadFile(name)
	f.t.close(sp, int64(len(data)))
	return data, err
}

func (f *tracedFS) MkdirAll(path string, perm os.FileMode) error {
	sp := f.span(spanWrite, "mkdir", path)
	defer f.t.close(sp, 0)
	return f.FS.MkdirAll(path, perm)
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	sp := f.span(spanWrite, "rename", newpath)
	defer f.t.close(sp, 0)
	return f.FS.Rename(oldpath, newpath)
}

func (f *tracedFS) CreateTemp(dir, pattern string) (fault.File, error) {
	sp := f.span(spanWrite, "create", pattern)
	file, err := f.FS.CreateTemp(dir, pattern)
	f.t.close(sp, 0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

type tracedFile struct {
	fault.File
	fs *tracedFS
}

func (w *tracedFile) Write(p []byte) (int, error) {
	sp := w.fs.span(spanWrite, "write", w.Name())
	n, err := w.File.Write(p)
	w.fs.t.close(sp, int64(n))
	return n, err
}

func (w *tracedFile) Close() error {
	sp := w.fs.span(spanWrite, "close", w.Name())
	defer w.fs.t.close(sp, 0)
	return w.File.Close()
}

// encode times CanonicalJSON under parent.
func (t *tracer) encode(res *result.Result, parent int) ([]byte, error) {
	sp := t.open(spanEncode, res.Experiment, parent)
	data, err := res.CanonicalJSON()
	t.close(sp, int64(len(data)))
	return data, err
}
