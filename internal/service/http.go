package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"parbw/internal/cluster"
	"parbw/internal/engine"
	"parbw/internal/harness"
	"parbw/internal/runstore"
)

// API is the HTTP surface of the run service, served by `bandsim serve`.
// The v1 surface lives under /v1/; the original unversioned paths remain as
// deprecated aliases with identical behavior (each logs a deprecation
// notice once per process and answers with a Deprecation header).
//
//	GET  /v1/experiments   registry listing (id, title, source, params schema)
//	POST /v1/runs          submit a sweep; waits for completion unless "wait": false.
//	                       "params" fixes parameters (scalars) and declares sweep
//	                       axes (arrays); the job is the cross product
//	                       experiments × param grid × seeds, one cached task per cell.
//	                       Responses are job summaries (counts by task state) —
//	                       tasks page through /tasks, result bytes live in /v1/results
//	GET  /v1/runs          job summary listing; supports ?limit= and ?cursor=
//	                       pagination plus ?experiment= filtering (see handleListRuns)
//	GET  /v1/runs/{id}     one job summary by id ("job-000001")
//	GET  /v1/runs/{id}/tasks
//	                       the job's tasks — state, resolved params, result key,
//	                       owner node — paginated with ?limit= and ?cursor=
//	GET  /v1/runs/{id}/events
//	                       live Server-Sent Events stream of the job (stream.go):
//	                       task lifecycle + sampled engine steps, Last-Event-ID
//	                       resume, heartbeat comments
//	DELETE /v1/runs/{id}   cancel a job
//	GET  /v1/results/{key} the stored canonical result JSON, byte-for-byte
//	DELETE /v1/results/{key}
//	                       delete a stored result
//	GET  /v1/healthz       liveness; add ?ready=1 for the readiness check
//	GET  /v1/readyz        readiness: store writability + dispatcher liveness;
//	                       in cluster mode the body also carries advisory
//	                       per-peer reachability (an unreachable peer does not
//	                       fail readiness — forwards to it degrade to local)
//	GET  /v1/statsz        run-store hit/miss/quarantine counters + executor
//	                       counters (shed/degraded/breaker) + aggregate engine
//	                       counters (supersteps simulated, traffic units routed,
//	                       max slot load, overloads) + in cluster mode the ring
//	                       membership and per-peer forward/breaker counters
//
// Cluster mode adds two peer-facing endpoints (v1-only, no unversioned
// aliases; both answer 404 on a single-node server):
//
//	POST /v1/cluster/run   run (or cache-serve) one forwarded task and answer
//	                       its canonical result bytes with an X-Parbw-Crc32
//	                       integrity header (see internal/cluster)
//	GET  /v1/cluster/ring  ring membership + per-peer forwarding health
//
// Every non-2xx response carries the uniform error envelope
//
//	{"error": {"code": "...", "message": "...", "retry_after": N?, "suggestions": [...]?}}
//
// where code is a stable machine-readable token (bad_request,
// unknown_experiment, unknown_param, not_found, unavailable, not_ready,
// internal), suggestions carries did-you-mean candidates on the unknown_*
// codes, and
// retry_after (seconds, mirrored in the Retry-After header) appears only on
// shedding responses. 400 means the request itself is malformed — do not
// retry unchanged. 503 means the service is shedding load (queue full) or
// draining for shutdown — retry after the hinted delay. A stored result
// served by key is returned byte-for-byte as stored, so repeated fetches
// are binary-identical.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		method, path string
		h            http.HandlerFunc
	}{
		{"GET", "/experiments", s.handleExperiments},
		{"POST", "/runs", s.handleCreateRun},
		{"GET", "/runs", s.handleListRuns},
		{"GET", "/runs/{id}", s.handleGetRun},
		{"DELETE", "/runs/{id}", s.handleCancelRun},
		{"GET", "/healthz", s.handleHealthz},
		{"GET", "/readyz", s.handleReadyz},
		{"GET", "/statsz", s.handleStatsz},
	}
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" /v1"+rt.path, rt.h)
		if !s.opts.NoUnversionedAliases {
			mux.HandleFunc(rt.method+" "+rt.path, deprecatedAlias(rt.method, rt.path, rt.h))
		}
	}
	// Resources new in v1 — the jobs/results split, task pagination, and the
	// live event stream — never get unversioned aliases.
	mux.HandleFunc("GET /v1/runs/{id}/tasks", s.handleRunTasks)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	mux.HandleFunc("GET /v1/results/{key}", s.handleGetResult)
	mux.HandleFunc("DELETE /v1/results/{key}", s.handleDeleteResult)
	// Cluster endpoints are new in v1 and peer-facing; they get no
	// unversioned aliases. ForwardPath/EventPath are the constants the
	// forwarding client uses, so the two sides cannot drift apart.
	mux.HandleFunc("POST "+cluster.ForwardPath, s.handleClusterRun)
	mux.HandleFunc("POST "+cluster.EventPath, s.handleClusterEvents)
	mux.HandleFunc("GET /v1/cluster/ring", s.handleClusterRing)
	return mux
}

// sunsetDate is the RFC 8594 Sunset announced on every deprecated surface:
// the date after which the unversioned aliases and the key-on-runs paths may
// be removed.
const sunsetDate = "Fri, 01 Jan 2027 00:00:00 GMT"

// deprecatedAlias keeps an unversioned path answering exactly like its /v1
// twin while logging a deprecation notice the first time it is hit and
// marking every response with Deprecation (RFC 9745) and Sunset (RFC 8594)
// headers.
func deprecatedAlias(method, path string, h http.HandlerFunc) http.HandlerFunc {
	var once sync.Once
	return func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() {
			log.Printf("service: deprecated unversioned path %s %s — use %s /v1%s", method, path, method, path)
		})
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Sunset", sunsetDate)
		h(w, r)
	}
}

// markKeyOnRunsDeprecated flags a response served through the legacy
// key-on-runs overload (/v1/runs/{key} for a stored result) — same
// once-logging and headers as the unversioned aliases. The replacement is
// /v1/results/{key}.
var keyOnRunsOnce sync.Once

func markKeyOnRunsDeprecated(w http.ResponseWriter, method string) {
	keyOnRunsOnce.Do(func() {
		log.Printf("service: deprecated key-on-runs path %s /v1/runs/{key} — use %s /v1/results/{key}", method, method)
	})
	w.Header().Set("Deprecation", "true")
	w.Header().Set("Sunset", sunsetDate)
}

// writeJSON encodes v to w. Encode errors (a client that hung up mid-body,
// an unencodable value) cannot be reported to the client — the status line
// is already gone — so they are logged and counted on /statsz instead of
// being silently dropped.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		log.Printf("service: encode response: %v", err)
		s.mu.Lock()
		s.stats.EncodeErrors++
		s.mu.Unlock()
	}
}

// The stable error codes and the ErrorBody/ErrorEnvelope types live in
// envelope.go; they are exported because the bandsim CLI's -json error
// output shares them.

func (s *Server) writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	s.writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// writeUnavailable sheds a request: 503 plus a Retry-After hint, in both
// the header and the envelope.
func (s *Server) writeUnavailable(w http.ResponseWriter, retryAfter time.Duration, format string, args ...any) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.writeJSON(w, http.StatusServiceUnavailable, ErrorEnvelope{Error: ErrorBody{
		Code:       CodeUnavailable,
		Message:    fmt.Sprintf(format, args...),
		RetryAfter: secs,
	}})
}

type experimentInfo struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Source string      `json:"source"`
	Params []paramInfo `json:"params"`
}

// paramInfo is the JSON shape of one declared parameter. Min and Max are
// omitted when the parameter is unbounded on that side.
type paramInfo struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"` // "int", "float", "bool"
	Default string   `json:"default"`
	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
	Doc     string   `json:"doc,omitempty"`
}

func paramSchema(specs []harness.ParamSpec) []paramInfo {
	out := make([]paramInfo, len(specs))
	for i, p := range specs {
		info := paramInfo{Name: p.Name, Kind: p.Kind.String(), Default: p.Default, Doc: p.Doc}
		if !math.IsInf(p.Min, -1) {
			v := p.Min
			info.Min = &v
		}
		if !math.IsInf(p.Max, 1) {
			v := p.Max
			info.Max = &v
		}
		out[i] = info
	}
	return out
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	all := harness.All()
	out := make([]experimentInfo, len(all))
	for i, e := range all {
		out[i] = experimentInfo{ID: e.ID, Title: e.Title, Source: e.Source, Params: paramSchema(e.Params)}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

func (s *Server) handleCreateRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return
	}
	job, err := s.Submit(req)
	if err != nil {
		var unknown *UnknownExperimentError
		var unkParam *harness.UnknownParamError
		var full *QueueFullError
		switch {
		case errors.As(err, &unknown):
			// Built by the same constructor the CLI's -json path uses, so
			// the two surfaces cannot drift apart.
			s.writeJSON(w, http.StatusBadRequest, UnknownExperimentEnvelope(unknown.ID))
		case errors.As(err, &unkParam):
			s.writeJSON(w, http.StatusBadRequest, ParamErrorEnvelope(err))
		case errors.As(err, &full):
			// Load shedding is not a client error: 503 + Retry-After.
			s.writeUnavailable(w, full.RetryAfter, "%v", err)
		case errors.Is(err, ErrDraining):
			s.writeUnavailable(w, s.retryAfterNow(), "%v", err)
		default:
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		}
		return
	}
	if req.Wait != nil && !*req.Wait {
		s.writeJSON(w, http.StatusAccepted, job.Summary())
		return
	}
	if state := job.Wait(r.Context()); state == "" {
		// Client went away; the job keeps running and stays fetchable.
		s.writeJSON(w, http.StatusAccepted, job.Summary())
		return
	}
	s.writeJSON(w, http.StatusOK, job.Summary())
}

// maxListLimit caps one page of GET /v1/runs.
const maxListLimit = 500

// runList is the response of GET /v1/runs. NextCursor is present only when
// a limit was given and more jobs remain; passing it back as ?cursor=
// resumes the listing after the last job of this page.
type runList struct {
	Jobs       []JobSummary `json:"jobs"`
	NextCursor string       `json:"next_cursor,omitempty"`
}

// handleListRuns lists retained jobs, oldest first. Query parameters:
//
//	limit=N         return at most N jobs (1..500) and a next_cursor when
//	                more remain; omitted = the whole listing (legacy shape)
//	cursor=ID       resume after job ID (as returned in next_cursor)
//	experiment=EID  only jobs with at least one task running experiment EID
//
// An unparseable limit or a cursor naming no retained job is a 400; a
// cursor is position-stable because job ids are monotone and the listing is
// oldest-first, so a pruned cursor job cannot silently skip survivors.
func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, "limit must be a positive integer, got %q", raw)
			return
		}
		if n > maxListLimit {
			n = maxListLimit
		}
		limit = n
	}
	jobs := s.Summaries()

	if cursor := q.Get("cursor"); cursor != "" {
		start := -1
		for i, v := range jobs {
			if v.ID == cursor {
				start = i + 1
				break
			}
		}
		if start < 0 {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, "unknown cursor %q", cursor)
			return
		}
		jobs = jobs[start:]
	}

	if exp := q.Get("experiment"); exp != "" {
		kept := jobs[:0:len(jobs)]
		for _, v := range jobs {
			for _, e := range v.Experiments {
				if e == exp {
					kept = append(kept, v)
					break
				}
			}
		}
		jobs = kept
	}

	out := runList{Jobs: jobs}
	if limit > 0 && len(jobs) > limit {
		out.Jobs = jobs[:limit]
		out.NextCursor = jobs[limit-1].ID
	}
	if out.Jobs == nil {
		out.Jobs = []JobSummary{} // an empty page is [], not null
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if runstore.ValidKey(id) {
		// Legacy overload: a stored result fetched through the runs
		// resource. Still answered, marked deprecated; /v1/results/{key} is
		// the home of stored bytes since the resource split.
		markKeyOnRunsDeprecated(w, "GET")
		s.serveStoredResult(w, id)
		return
	}
	job, ok := s.Job(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeNotFound, "no job %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, job.Summary())
}

// serveStoredResult answers a stored result's canonical bytes, byte-for-byte.
func (s *Server) serveStoredResult(w http.ResponseWriter, key string) {
	data, ok, err := s.opts.Store.GetBytes(key)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeNotFound, "no stored run with key %s", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// deleteStoredResult deletes a stored result by key. It reads before
// deleting so that a corrupt entry is quarantined and answered as a 404 miss
// (the delete of a just-quarantined key is then a harmless no-op) instead of
// surfacing a 500 for a result the client could never have fetched anyway.
func (s *Server) deleteStoredResult(w http.ResponseWriter, key string) {
	_, ok, err := s.opts.Store.GetBytes(key)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeNotFound, "no stored run with key %s", key)
		return
	}
	if err := s.opts.Store.Delete(key); err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"deleted": key})
}

// handleGetResult serves GET /v1/results/{key}: the stored canonical result
// JSON, exactly as stored.
func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !runstore.ValidKey(key) {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "%q is not a run-store key (64 hex chars)", key)
		return
	}
	s.serveStoredResult(w, key)
}

// handleDeleteResult serves DELETE /v1/results/{key}.
func (s *Server) handleDeleteResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !runstore.ValidKey(key) {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "%q is not a run-store key (64 hex chars)", key)
		return
	}
	s.deleteStoredResult(w, key)
}

// handleCancelRun cancels a job by id. The legacy overload — DELETE with a
// run-store key — still deletes the stored result, marked deprecated in
// favor of DELETE /v1/results/{key}.
func (s *Server) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if runstore.ValidKey(id) {
		markKeyOnRunsDeprecated(w, "DELETE")
		s.deleteStoredResult(w, id)
		return
	}
	job, ok := s.Job(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeNotFound, "no job %q", id)
		return
	}
	job.Cancel()
	s.writeJSON(w, http.StatusOK, job.Summary())
}

// taskPage is the response of GET /v1/runs/{id}/tasks: a window of the
// job's tasks in submission order. Task entries carry state, resolved
// params, the result key, and (in cluster mode) the owning node — result
// bytes live under /v1/results/{key}. NextCursor appears when more tasks
// remain; pass it back as ?cursor= to resume.
type taskPage struct {
	Tasks      []Task `json:"tasks"`
	Total      int    `json:"total"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// handleRunTasks pages through a job's tasks. ?limit= (1..500, default the
// whole list) bounds the page; ?cursor= is the opaque value of the previous
// page's next_cursor (a task index — stable because a job's task list is
// immutable after admission).
func (s *Server) handleRunTasks(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeNotFound, "no job %q", r.PathValue("id"))
		return
	}
	q := r.URL.Query()
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, "limit must be a positive integer, got %q", raw)
			return
		}
		if n > maxListLimit {
			n = maxListLimit
		}
		limit = n
	}
	tasks := job.View().Tasks
	start := 0
	if raw := q.Get("cursor"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 || n > len(tasks) {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, "unknown cursor %q", raw)
			return
		}
		start = n
	}
	page := taskPage{Total: len(tasks)}
	window := tasks[start:]
	if limit > 0 && len(window) > limit {
		window = window[:limit]
		page.NextCursor = strconv.Itoa(start + limit)
	}
	page.Tasks = make([]Task, len(window))
	for i, t := range window {
		t.Result = nil // bytes live under /v1/results/{key}
		page.Tasks[i] = t
	}
	s.writeJSON(w, http.StatusOK, page)
}

// handleHealthz is pure liveness — the process is up and serving — unless
// ?ready=1 asks for the readiness semantics of /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("ready") == "1" {
		s.handleReadyz(w, r)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports whether a job submitted now would be admitted and
// cacheable: dispatcher alive, not draining, store writable (probed with a
// real write). Load balancers should route on this, not /healthz. In cluster
// mode the body carries per-peer reachability, but only as advisory detail:
// a node with dead peers is still ready, because forwards to them degrade to
// local compute rather than failing.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := s.Ready(); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, CodeNotReady, "%v", err)
		return
	}
	body := map[string]any{"status": "ready"}
	if s.cluster != nil {
		body["peers"] = s.cluster.PeerHealth(r.Context())
	}
	s.writeJSON(w, http.StatusOK, body)
}

type statsView struct {
	Store    runstore.Stats  `json:"store"`
	Executor Stats           `json:"executor"`
	Engine   engine.Counters `json:"engine"`
	Cluster  *cluster.Stats  `json:"cluster,omitempty"` // nil on a single-node server
	Time     time.Time       `json:"time"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	view := statsView{
		Store:    s.opts.Store.Stats(),
		Executor: s.Stats(),
		Engine:   engine.GlobalCounters(),
		Time:     time.Now().UTC(),
	}
	if s.cluster != nil {
		snap := s.cluster.Snapshot()
		view.Cluster = &snap
	}
	s.writeJSON(w, http.StatusOK, view)
}
