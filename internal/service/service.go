// Package service turns the experiment registry into a run service: a job
// queue plus a sweep executor on top of the content-addressed run store.
//
// A job is one request — a set of experiment ids × seeds. The executor fans
// the tasks of a job out over an internal/workpool pool with a per-job
// context timeout, prompt cancellation, panic recovery around experiment
// code, and bounded retries paced by exponential backoff with deterministic
// jitter. Every completed task is stored in internal/runstore keyed by
// (experiment, params, seed, code version), so a repeated request is served
// from cache without re-simulating — the simulations are deterministic,
// which makes them the ideal cacheable workload.
//
// The serve path is engineered to degrade rather than collapse, mirroring
// the paper's bandwidth thesis: a full queue sheds load (typed QueueFullError
// → HTTP 503 + Retry-After) instead of queueing unboundedly, a failing run
// store trips a circuit breaker and jobs complete compute-without-cache
// instead of failing, and Shutdown drains — running jobs finish inside a
// deadline while queued jobs cancel. Chaos tests drive all of it through
// internal/fault plans threaded via Options.Fault and the run store's
// filesystem seam. The HTTP API in http.go exposes the whole thing as
// `bandsim serve`.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"parbw/internal/cluster"
	"parbw/internal/engine"
	"parbw/internal/fault"
	"parbw/internal/harness"
	"parbw/internal/result"
	"parbw/internal/retry"
	"parbw/internal/runstore"
	"parbw/internal/workpool"
)

// Runner executes one experiment run. The default runner dispatches into the
// harness registry; tests substitute flaky runners to exercise retry and
// panic-recovery paths.
type Runner func(id string, cfg harness.Config) (*result.Result, error)

// DefaultRunner runs a registered experiment silently and returns its
// structured result.
func DefaultRunner(id string, cfg harness.Config) (*result.Result, error) {
	e, ok := harness.ByID(id)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
	return e.Run(io.Discard, cfg), nil
}

// Injection points the executor fires on the fault plan (Options.Fault).
const (
	// PointRunner fires inside the panic-recovery envelope just before the
	// runner: Error fails the attempt, Panic exercises recovery, Slow
	// stalls the task.
	PointRunner = "service.runner"
	// PointStoreGet fires before the cache lookup; an Error skips the
	// lookup (counted as a store error) and the task recomputes.
	PointStoreGet = "service.store.get"
	// PointStorePut fires before the cache write; an Error counts as a
	// store-write failure against the circuit breaker.
	PointStorePut = "service.store.put"
)

// Options configures a Server. Zero values select the documented defaults.
type Options struct {
	Store      *runstore.Store // required
	Workers    int             // sweep fan-out width; <=0 → GOMAXPROCS
	JobTimeout time.Duration   // default per-job timeout; <=0 → 5m
	Retries    int             // extra attempts per failed task; <0 → 0 (default 2)
	QueueDepth int             // pending-job bound; <=0 → 64
	MaxTasks   int             // per-job task bound; <=0 → 4096
	Runner     Runner          // nil → DefaultRunner

	// Retry discipline. Backoff is the pause before the first retry,
	// doubling per attempt with deterministic jitter, capped at BackoffMax.
	Backoff    time.Duration // 0 → 50ms; <0 → no backoff
	BackoffMax time.Duration // 0 → 2s

	// Circuit breaker around run-store writes: BreakerThreshold consecutive
	// write failures open it for BreakerCooldown, during which tasks
	// complete without caching (degraded) instead of retrying the store.
	BreakerThreshold int           // 0 → 3; <0 → breaker disabled
	BreakerCooldown  time.Duration // 0 → 5s

	// Fault is an optional chaos plan; nil injects nothing.
	Fault *fault.Plan

	// Live streaming (GET /v1/runs/{id}/events). SubscriberBuffer bounds each
	// subscriber's pending-event queue — a slower client loses events (with a
	// gap marker) instead of back-pressuring the executor. ReplayEvents bounds
	// the per-job ring that serves Last-Event-ID resume. Heartbeat paces the
	// SSE keepalive comments. StepSample publishes every Nth committed engine
	// superstep of a task as a lossy "step" event while anyone is subscribed.
	SubscriberBuffer int           // <=0 → 4096
	ReplayEvents     int           // <=0 → 4096
	Heartbeat        time.Duration // 0 → 15s; <0 → no heartbeats
	StepSample       int           // 0 → 64; <0 → step events disabled

	// NoUnversionedAliases drops the deprecated pre-v1 alias paths from the
	// handler: only /v1 answers. The default (false) keeps the aliases,
	// matching `serve -compat-unversioned=true`.
	NoUnversionedAliases bool

	// Cluster, when non-nil, turns the server into one node of a sharded
	// cluster: run-store keys are placed on a consistent-hash ring, and a
	// task whose key is owned by a peer is forwarded there (cluster.go).
	// When the peer is down, slow, or partitioned the task degrades to
	// local compute-without-forwarding instead of failing. Nil is
	// single-node mode, byte-identical to the pre-cluster behavior.
	Cluster *cluster.Client
}

// Task and job states.
const (
	StatusQueued    = "queued" // jobs only
	StatusPending   = "pending"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// Task is one (experiment, params, seed) cell of a job's sweep. Params is
// the full resolved assignment — defaults applied, values canonical, sorted
// by name — so the task is self-describing and its Key is reproducible from
// the fields alone.
type Task struct {
	Experiment string         `json:"experiment"`
	Seed       uint64         `json:"seed"`
	Params     []result.Param `json:"params"`
	Key        string         `json:"key"`
	Owner      string         `json:"owner,omitempty"` // cluster node owning this key ("" single-node)
	Status     string         `json:"status"`
	Cached     bool           `json:"cached"`
	Forwarded  bool           `json:"forwarded,omitempty"` // answered by the key's owning peer
	Degraded   bool           `json:"degraded,omitempty"`  // done, but off the normal path: not cached, or computed locally because the owning peer was unreachable
	Attempts   int            `json:"attempts"`
	WallMS     float64        `json:"wall_ms"`
	Error      string         `json:"error,omitempty"`

	// Result is the canonical JSON of the structured result, exactly the
	// bytes held by the run store — byte-identical across repeated requests.
	Result []byte `json:"-"`
}

// Job is one submitted request moving through the queue. job.mu guards
// state, the timestamps, and every field of its tasks; the executor and the
// HTTP snapshotting both take it.
type Job struct {
	id      string
	timeout time.Duration
	runCtx  context.Context

	mu       sync.Mutex
	state    string
	tasks    []*Task
	created  time.Time
	started  time.Time
	finished time.Time

	cancel context.CancelFunc
	done   chan struct{}
	bus    *bus // the job's event stream; closed when the job finishes
}

// Events exposes the job's event bus for in-process subscribers (the SSE
// handler, tests, and the cluster event back-channel).
func (j *Job) Events() *bus { return j.bus }

// TaskView is the JSON shape of a task, including the cached result bytes.
type TaskView struct {
	Experiment string          `json:"experiment"`
	Seed       uint64          `json:"seed"`
	Params     []result.Param  `json:"params"`
	Key        string          `json:"key"`
	Owner      string          `json:"owner,omitempty"`
	Status     string          `json:"status"`
	Cached     bool            `json:"cached"`
	Forwarded  bool            `json:"forwarded,omitempty"`
	Degraded   bool            `json:"degraded,omitempty"`
	Attempts   int             `json:"attempts"`
	WallMS     float64         `json:"wall_ms"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// JobView is the JSON shape of a job.
type JobView struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	TimeoutMS int64      `json:"timeout_ms"`
	Tasks     []TaskView `json:"tasks"`
}

// JobSummary is the HTTP shape of a job since the jobs/results resource
// split: identity, state, and counts — never the task list or result bytes.
// Tasks page through GET /v1/runs/{id}/tasks; stored results live under
// GET /v1/results/{key}.
type JobSummary struct {
	ID          string         `json:"id"`
	State       string         `json:"state"`
	Created     time.Time      `json:"created"`
	Started     *time.Time     `json:"started,omitempty"`
	Finished    *time.Time     `json:"finished,omitempty"`
	TimeoutMS   int64          `json:"timeout_ms"`
	TaskCount   int            `json:"task_count"`
	TaskStates  map[string]int `json:"task_states"`
	Experiments []string       `json:"experiments"`
}

// Summary snapshots the job as its HTTP summary view.
func (j *Job) Summary() JobSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobSummary{
		ID:         j.id,
		State:      j.state,
		Created:    j.created,
		TimeoutMS:  j.timeout.Milliseconds(),
		TaskCount:  len(j.tasks),
		TaskStates: map[string]int{},
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	seen := map[string]bool{}
	for _, t := range j.tasks {
		v.TaskStates[t.Status]++
		if !seen[t.Experiment] {
			seen[t.Experiment] = true
			v.Experiments = append(v.Experiments, t.Experiment)
		}
	}
	sort.Strings(v.Experiments)
	return v
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		State:     j.state,
		Created:   j.created,
		TimeoutMS: j.timeout.Milliseconds(),
		Tasks:     make([]TaskView, len(j.tasks)),
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	for i, t := range j.tasks {
		v.Tasks[i] = TaskView{
			Experiment: t.Experiment,
			Seed:       t.Seed,
			Params:     t.Params,
			Key:        t.Key,
			Owner:      t.Owner,
			Status:     t.Status,
			Cached:     t.Cached,
			Forwarded:  t.Forwarded,
			Degraded:   t.Degraded,
			Attempts:   t.Attempts,
			WallMS:     t.WallMS,
			Error:      t.Error,
			Result:     json.RawMessage(t.Result),
		}
	}
	return v
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job finishes (any terminal state).
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cancellation; queued tasks stop dispatching promptly.
func (j *Job) Cancel() { j.cancel() }

// Wait blocks until the job finishes or ctx is done; it returns the job's
// terminal state, or "" if ctx won the race.
func (j *Job) Wait(ctx context.Context) string {
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.state
	case <-ctx.Done():
		return ""
	}
}

func terminal(state string) bool {
	return state == StatusDone || state == StatusFailed || state == StatusCancelled
}

// Stats are the server's lifetime counters, served by /statsz.
type Stats struct {
	JobsAccepted  uint64 `json:"jobs_accepted"`
	JobsShed      uint64 `json:"jobs_shed"` // rejected: queue full or draining
	JobsDone      uint64 `json:"jobs_done"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCancelled uint64 `json:"jobs_cancelled"`
	TasksRun      uint64 `json:"tasks_run"`
	TasksCached   uint64 `json:"tasks_cached"`
	TasksDegraded uint64 `json:"tasks_degraded"` // completed without a cache write
	// Cluster-mode counters. The origin node counts a forward, the owner
	// counts the run (or cache hit) it answered with — never both, so summing
	// tasks_run+tasks_cached+tasks_forwarded across nodes counts each task once.
	TasksForwarded  uint64 `json:"tasks_forwarded"`  // tasks answered by their owning peer
	ForwardDegraded uint64 `json:"forward_degraded"` // forwards abandoned; task computed locally
	TaskRetries     uint64 `json:"task_retries"`
	TaskPanics      uint64 `json:"task_panics"`
	StoreErrors     uint64 `json:"store_errors"` // store read/write failures observed
	BreakerOpens    uint64 `json:"breaker_opens"`
	BreakerOpen     bool   `json:"breaker_open"`
	EncodeErrors    uint64 `json:"http_encode_errors"`
	// Live-stream counters (the per-job event buses).
	StreamEventsPublished uint64 `json:"stream_events_published"`
	StreamEventsDropped   uint64 `json:"stream_events_dropped"`
	StreamEventsCoalesced uint64 `json:"stream_events_coalesced"`
	Draining              bool   `json:"draining"`
	QueueLen              int    `json:"queue_len"`
	Workers               int    `json:"workers"`
}

// Server owns the job queue, the executor, and the run store.
type Server struct {
	opts    Options
	pool    *workpool.Pool
	runner  Runner
	fault   *fault.Plan
	breaker *retry.Breaker
	cluster *cluster.Client

	baseCtx        context.Context
	cancel         context.CancelFunc
	queue          chan *Job
	wg             sync.WaitGroup
	drainOnce      sync.Once
	drainCh        chan struct{}
	dispatcherDone chan struct{}

	streamM busMetrics // server-wide streaming counters (every job bus feeds them)

	mu       sync.Mutex
	closed   bool
	draining bool
	seq      int
	jobs     map[string]*Job
	order    []string // job ids, oldest first, for pruning
	stats    Stats
	avgJob   time.Duration // EWMA of job wall time; feeds retryAfterHint
}

// maxRetainedJobs bounds the in-memory job index; the oldest finished jobs
// are pruned past it (their results stay in the run store).
const maxRetainedJobs = 512

// New starts a server: the dispatcher goroutine runs until Close/Shutdown.
func New(opts Options) (*Server, error) {
	if opts.Store == nil {
		return nil, errors.New("service: Options.Store is required")
	}
	if opts.JobTimeout <= 0 {
		opts.JobTimeout = 5 * time.Minute
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.MaxTasks <= 0 {
		opts.MaxTasks = 4096
	}
	if opts.Runner == nil {
		opts.Runner = DefaultRunner
	}
	if opts.Backoff == 0 {
		opts.Backoff = 50 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 2 * time.Second
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 3
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 5 * time.Second
	}
	if opts.SubscriberBuffer <= 0 {
		opts.SubscriberBuffer = 4096
	}
	if opts.ReplayEvents <= 0 {
		opts.ReplayEvents = 4096
	}
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 15 * time.Second
	}
	if opts.StepSample == 0 {
		opts.StepSample = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:           opts,
		pool:           workpool.New(opts.Workers),
		runner:         opts.Runner,
		fault:          opts.Fault,
		breaker:        retry.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		cluster:        opts.Cluster,
		baseCtx:        ctx,
		cancel:         cancel,
		queue:          make(chan *Job, opts.QueueDepth),
		drainCh:        make(chan struct{}),
		dispatcherDone: make(chan struct{}),
		jobs:           map[string]*Job{},
	}
	s.wg.Add(1)
	go s.dispatch()
	return s, nil
}

// nodeName is this server's cluster identity, or "" on a single-node server.
func (s *Server) nodeName() string {
	if s.cluster == nil {
		return ""
	}
	return s.cluster.Self()
}

// stepSampler is the engine→bus bridge: the observer a task's run gives
// every machine it constructs. It passes every StepSample-th committed step
// of the task to emit, counting across the task's attempts. Callers only
// build one when StepSample > 0. The run drives its machines from one
// goroutine, so the count needs no lock.
func (s *Server) stepSampler(emit func(st engine.StepStats)) engine.Observer {
	n := 0
	return engine.ObserverFunc(func(st engine.StepStats) {
		if n%s.opts.StepSample == 0 {
			emit(st)
		}
		n++
	})
}

// Close is the hard stop: it cancels every running job, stops the
// dispatcher, and waits for it to drain. Idempotent, and safe after
// Shutdown.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// Shutdown is the graceful drain: new submissions are rejected, jobs still
// queued are cancelled, and jobs already running are given until ctx's
// deadline to finish before being hard-cancelled. It returns nil on a clean
// drain, or ctx's error if the deadline forced a hard cancel.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.draining = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	if alreadyClosed {
		s.wg.Wait()
		return nil
	}

	// Queued jobs cancel promptly; the dispatcher skips them when it gets
	// there. Running jobs are left alone.
	for _, j := range jobs {
		j.mu.Lock()
		queued := j.state == StatusQueued
		j.mu.Unlock()
		if queued {
			s.finishJob(j, StatusCancelled)
		}
	}
	s.drainOnce.Do(func() { close(s.drainCh) })

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel() // deadline passed: hard-cancel what is still running
		<-done
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	return err
}

// Ready reports whether the server can usefully accept a job right now:
// the dispatcher is alive, the server is not draining or closed, and the
// run store can persist data (probed with a real write).
func (s *Server) Ready() error {
	s.mu.Lock()
	closed, draining := s.closed, s.draining
	s.mu.Unlock()
	if closed {
		return errors.New("service: server is shut down")
	}
	if draining {
		return ErrDraining
	}
	select {
	case <-s.dispatcherDone:
		return errors.New("service: dispatcher not running")
	default:
	}
	return s.opts.Store.CheckWritable()
}

// Store exposes the underlying run store (for stats and direct key reads).
func (s *Server) Store() *runstore.Store { return s.opts.Store }

// RunRequest is a submitted sweep: the cross product of
// Experiments × parameter grid × Seeds.
type RunRequest struct {
	// Experiments lists harness ids; the single entry "all" expands to every
	// registered experiment.
	Experiments []string `json:"experiments"`
	// Seeds defaults to [1].
	Seeds []uint64 `json:"seeds"`
	// Params sets experiment parameters by name. A scalar (number, bool, or
	// string) fixes the parameter for every task; an array declares a sweep
	// axis, and the job fans out over the cross product of all axes — each
	// cell an independently keyed, independently cached task. Names and
	// values are validated against each experiment's declared schema.
	Params map[string]any `json:"params"`
	// Quick is legacy sugar for Params{"quick": true}; an explicit "quick"
	// entry in Params wins.
	Quick bool `json:"quick"`
	// TimeoutMS overrides the server's default per-job timeout.
	TimeoutMS int64 `json:"timeout_ms"`
	// Wait, when true (the HTTP default), makes POST /runs block until the
	// job reaches a terminal state.
	Wait *bool `json:"wait"`
}

// UnknownExperimentError reports an id that is not in the registry, with
// closest-match suggestions.
type UnknownExperimentError struct {
	ID          string
	Suggestions []string
}

func (e *UnknownExperimentError) Error() string {
	if len(e.Suggestions) == 0 {
		return fmt.Sprintf("unknown experiment %q", e.ID)
	}
	return fmt.Sprintf("unknown experiment %q (closest: %v)", e.ID, e.Suggestions)
}

// QueueFullError is returned by Submit when the pending-job queue is at
// capacity. It is load shedding, not failure: the request was never
// admitted, and RetryAfter tells the client when trying again is sensible.
// The HTTP layer maps it to 503 + Retry-After.
type QueueFullError struct {
	Depth      int
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: queue full (depth %d), retry after %s", e.Depth, e.RetryAfter)
}

// ErrDraining is returned by Submit once Shutdown has begun.
var ErrDraining = errors.New("service: server draining")

// retryAfterHint derives the Retry-After attached to shed requests from the
// state that caused the shedding: with `backlog` jobs queued and jobs
// draining at one per avgJob, the queue frees a slot in about
// (backlog+1)·avgJob — so that is when retrying stops being futile. A server
// that has finished nothing yet assumes 1s per job. Clamped to [1s, 60s]:
// at least a polite pause, at most a minute so clients re-probe even when
// the queue looks hopeless.
func retryAfterHint(backlog int, avgJob time.Duration) time.Duration {
	if avgJob <= 0 {
		avgJob = time.Second
	}
	hint := time.Duration(backlog+1) * avgJob
	if hint < time.Second {
		return time.Second
	}
	if hint > time.Minute {
		return time.Minute
	}
	return hint
}

// retryAfterNow is retryAfterHint evaluated against the live queue.
func (s *Server) retryAfterNow() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return retryAfterHint(len(s.queue), s.avgJob)
}

// Submit validates req, builds the job, and enqueues it. It returns
// immediately; use Job.Wait or Job.Done for completion. When the queue is
// full the request is shed with a QueueFullError instead of blocking.
func (s *Server) Submit(req RunRequest) (*Job, error) {
	ids, err := expandExperiments(req.Experiments)
	if err != nil {
		return nil, err
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	cells, err := expandParamGrid(req)
	if err != nil {
		return nil, err
	}
	if n := len(ids) * len(cells) * len(seeds); n > s.opts.MaxTasks {
		return nil, fmt.Errorf("service: job would have %d tasks, cap is %d", n, s.opts.MaxTasks)
	}
	timeout := s.opts.JobTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}

	tasks := make([]*Task, 0, len(ids)*len(cells)*len(seeds))
	for _, id := range ids {
		e, _ := harness.ByID(id) // expandExperiments already vetted the id
		for _, cell := range cells {
			// Resolve per (experiment, cell): validation errors (unknown
			// name, bad value) reject the whole request before anything runs.
			vals, err := e.Resolve(cell)
			if err != nil {
				return nil, err
			}
			params := vals.ResultParams(0).Values
			canon := vals.Canonical()
			for _, seed := range seeds {
				tasks = append(tasks, &Task{
					Experiment: id,
					Seed:       seed,
					Params:     params,
					Key: runstore.Key(runstore.KeySpec{
						Experiment: id,
						Seed:       seed,
						Params:     canon,
						Version:    harness.CodeVersion,
					}),
					Status: StatusPending,
				})
			}
		}
	}

	// Partition the grid at admission: in cluster mode every task records the
	// node owning its store key, and the executor ships it there (cluster.go).
	if s.cluster != nil {
		for _, t := range tasks {
			t.Owner = s.cluster.Owner(t.Key)
		}
	}

	jobCtx, jobCancel := context.WithCancel(s.baseCtx)
	job := &Job{
		timeout: timeout,
		runCtx:  jobCtx,
		state:   StatusQueued,
		tasks:   tasks,
		created: time.Now(),
		cancel:  jobCancel,
		done:    make(chan struct{}),
		bus:     newBus(s.opts.ReplayEvents, s.opts.SubscriberBuffer, &s.streamM),
	}

	// Admission events: one per cell, carrying the full resolved identity so
	// a stream consumer needs no side lookups. They are published before the
	// job is queued, so the dispatcher's running/started events always follow
	// them. Subscribers attach later (they need the job id first); the
	// replay ring catches them up.
	job.bus.publish(Event{Type: EventJob, Task: -1, State: StatusQueued})
	for i, t := range tasks {
		job.bus.publish(Event{
			Type: EventAdmitted, Task: i,
			Experiment: t.Experiment, Seed: t.Seed, Params: t.Params,
			Key: t.Key, Node: t.Owner,
		})
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		jobCancel()
		return nil, errors.New("service: server is shut down")
	}
	if s.draining {
		s.stats.JobsShed++
		s.mu.Unlock()
		jobCancel()
		return nil, ErrDraining
	}
	select {
	case s.queue <- job:
	default:
		// Admission control: shed instead of admitting work we cannot
		// start. The job is never registered, so nothing leaks. The hint is
		// computed at the shed moment from the backlog and drain rate.
		s.stats.JobsShed++
		retryAfter := retryAfterHint(len(s.queue), s.avgJob)
		s.mu.Unlock()
		jobCancel()
		return nil, &QueueFullError{Depth: s.opts.QueueDepth, RetryAfter: retryAfter}
	}
	s.seq++
	job.id = fmt.Sprintf("job-%06d", s.seq)
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.stats.JobsAccepted++
	s.pruneLocked()
	s.mu.Unlock()
	return job, nil
}

func expandExperiments(ids []string) ([]string, error) {
	if len(ids) == 0 {
		return nil, errors.New("service: no experiments requested")
	}
	if len(ids) == 1 && ids[0] == "all" {
		all := harness.All()
		out := make([]string, len(all))
		for i, e := range all {
			out[i] = e.ID
		}
		return out, nil
	}
	seen := map[string]bool{}
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if _, ok := harness.ByID(id); !ok {
			return nil, &UnknownExperimentError{ID: id, Suggestions: harness.Suggest(id)}
		}
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out, nil
}

// expandParamGrid turns req.Params into the job's parameter cells: scalars
// fix a parameter for every task, arrays declare sweep axes, and the cells
// are the cross product of the axes in sorted name order (deterministic task
// order for a given request). The legacy Quick flag folds the "quick" preset
// in unless the request names "quick" itself. Values are raw strings here;
// Submit validates each cell against the experiment's schema via Resolve.
func expandParamGrid(req RunRequest) ([]map[string]string, error) {
	fixed := map[string]string{}
	axes := map[string][]string{}
	for name, v := range req.Params {
		if list, ok := v.([]any); ok {
			if len(list) == 0 {
				return nil, fmt.Errorf("service: param %q: sweep list is empty", name)
			}
			vals := make([]string, len(list))
			for i, item := range list {
				s, err := paramString(item)
				if err != nil {
					return nil, fmt.Errorf("service: param %q[%d]: %v", name, i, err)
				}
				vals[i] = s
			}
			axes[name] = vals
			continue
		}
		s, err := paramString(v)
		if err != nil {
			return nil, fmt.Errorf("service: param %q: %v", name, err)
		}
		fixed[name] = s
	}
	if req.Quick {
		if _, ok := fixed["quick"]; !ok {
			if _, ok := axes["quick"]; !ok {
				fixed["quick"] = "true"
			}
		}
	}

	names := make([]string, 0, len(axes))
	for name := range axes {
		names = append(names, name)
	}
	sort.Strings(names)
	cells := []map[string]string{fixed}
	for _, name := range names {
		next := make([]map[string]string, 0, len(cells)*len(axes[name]))
		for _, cell := range cells {
			for _, v := range axes[name] {
				c := make(map[string]string, len(cell)+1)
				for k, cv := range cell {
					c[k] = cv
				}
				c[name] = v
				next = append(next, c)
			}
		}
		cells = next
	}
	return cells, nil
}

// paramString renders one JSON parameter value as the raw string the harness
// validates. JSON numbers arrive as float64; the 'g' encoding keeps integers
// integral ("64", not "64.000000") so they parse under KindInt.
func paramString(v any) (string, error) {
	switch x := v.(type) {
	case string:
		return x, nil
	case bool:
		return strconv.FormatBool(x), nil
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64), nil
	case json.Number:
		return x.String(), nil
	default:
		return "", fmt.Errorf("unsupported value type %T (use a number, bool, string, or a flat array of those)", v)
	}
}

// paramMap rebuilds the raw override map from a task's resolved params; the
// values are already canonical, so re-resolving them is the identity.
func paramMap(ps []result.Param) map[string]string {
	m := make(map[string]string, len(ps))
	for _, p := range ps {
		m[p.Name] = p.Value
	}
	return m
}

// Job lookup by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns snapshots of every retained job, oldest first.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.View()
	}
	return out
}

// Summaries returns the HTTP summary of every retained job, oldest first.
func (s *Server) Summaries() []JobSummary {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobSummary, len(jobs))
	for i, j := range jobs {
		out[i] = j.Summary()
	}
	return out
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.QueueLen = len(s.queue)
	st.Workers = s.pool.Workers()
	st.Draining = s.draining
	st.BreakerOpen = s.breaker.Open(time.Now())
	st.BreakerOpens = s.breaker.Opens()
	st.StreamEventsPublished = s.streamM.published.Load()
	st.StreamEventsDropped = s.streamM.dropped.Load()
	st.StreamEventsCoalesced = s.streamM.coalesced.Load()
	return st
}

// pruneLocked drops the oldest finished jobs past maxRetainedJobs.
func (s *Server) pruneLocked() {
	for len(s.order) > maxRetainedJobs {
		dropped := false
		for i, id := range s.order {
			j := s.jobs[id]
			if j == nil {
				s.order = append(s.order[:i], s.order[i+1:]...)
				dropped = true
				break
			}
			j.mu.Lock()
			done := terminal(j.state)
			j.mu.Unlock()
			if done {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			return // everything retained is still live
		}
	}
}

// dispatch is the queue consumer: jobs execute one at a time in submission
// order; each job's tasks fan out over the workpool. A drain request lets
// the running job finish, then cancels whatever is still queued; a hard
// cancel (Close) additionally cancels the running job via baseCtx.
func (s *Server) dispatch() {
	defer s.wg.Done()
	defer close(s.dispatcherDone)
	drainQueued := func(state string) {
		for {
			select {
			case job := <-s.queue:
				s.finishJob(job, state)
			default:
				return
			}
		}
	}
	for {
		select {
		case <-s.baseCtx.Done():
			drainQueued(StatusCancelled)
			return
		case <-s.drainCh:
			drainQueued(StatusCancelled)
			return
		case job := <-s.queue:
			s.runJob(job)
		}
	}
}

func (s *Server) runJob(job *Job) {
	job.mu.Lock()
	if terminal(job.state) {
		// Cancelled while queued (drain or DELETE): nothing to run.
		job.mu.Unlock()
		return
	}
	job.state = StatusRunning
	job.started = time.Now()
	tasks := job.tasks
	job.mu.Unlock()
	job.bus.publish(Event{Type: EventJob, Task: -1, State: StatusRunning})

	ctx, cancelTimeout := context.WithTimeout(job.runCtx, job.timeout)
	defer cancelTimeout()

	s.pool.ForCtx(ctx, len(tasks), func(i int) {
		s.runTask(ctx, job, i, tasks[i])
	})

	state := StatusDone
	var swept []int // tasks cancelled here, not by runTask: they still owe a terminal event
	job.mu.Lock()
	for i, t := range tasks {
		switch t.Status {
		case StatusPending, StatusRunning:
			t.Status = StatusCancelled
			t.Error = contextReason(ctx)
			state = StatusCancelled
			swept = append(swept, i)
		case StatusCancelled:
			state = StatusCancelled
		case StatusFailed:
			if state != StatusCancelled {
				state = StatusFailed
			}
		}
	}
	job.mu.Unlock()
	for _, i := range swept {
		job.bus.publish(Event{Type: EventCancelled, Task: i, Key: tasks[i].Key, Error: contextReason(ctx)})
	}
	s.finishJob(job, state)
}

func contextReason(ctx context.Context) string {
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return "job timeout"
	case ctx.Err() != nil:
		return "job cancelled"
	default:
		return ""
	}
}

func (s *Server) finishJob(job *Job, state string) {
	job.mu.Lock()
	alreadyDone := terminal(job.state)
	var wall time.Duration
	var neverRan []int // tasks that never dispatched (job cancelled while queued)
	counts := map[string]int{}
	if !alreadyDone {
		job.state = state
		job.finished = time.Now()
		if !job.started.IsZero() {
			wall = job.finished.Sub(job.started)
		}
		for i, t := range job.tasks {
			st := t.Status
			if st == StatusPending || st == StatusRunning {
				neverRan = append(neverRan, i)
				st = StatusCancelled // what the terminal event below reports
			}
			counts[st]++
		}
	}
	job.mu.Unlock()
	if alreadyDone {
		return
	}
	// Close out the stream: terminal events for tasks nothing else will
	// report on, the job's terminal event with the final tally, then the bus
	// seals so every subscriber drains and ends.
	for _, i := range neverRan {
		job.bus.publish(Event{Type: EventCancelled, Task: i, Key: job.tasks[i].Key, Error: "job cancelled"})
	}
	job.bus.publish(Event{Type: EventJob, Task: -1, State: state, Counts: counts})
	job.bus.close()
	job.cancel()
	close(job.done)
	s.mu.Lock()
	switch state {
	case StatusDone:
		s.stats.JobsDone++
	case StatusFailed:
		s.stats.JobsFailed++
	case StatusCancelled:
		s.stats.JobsCancelled++
	}
	// Fold the job's wall time into the drain-rate estimate (EWMA, α=1/8)
	// that retryAfterHint uses. Jobs cancelled before starting carry no
	// signal about drain rate and are skipped.
	if wall > 0 {
		if s.avgJob == 0 {
			s.avgJob = wall
		} else {
			s.avgJob += (wall - s.avgJob) / 8
		}
	}
	s.mu.Unlock()
}

func (s *Server) countStoreError() {
	s.mu.Lock()
	s.stats.StoreErrors++
	s.mu.Unlock()
}

// sleepCtx pauses for d, cut short if ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// runTask executes one task: run-store lookup first, then the experiment
// with panic recovery and bounded retries paced by backoffDelay. Task
// fields are only touched under job.mu so HTTP snapshots never race the
// executor. Store failures degrade (recompute, or complete uncached); they
// never fail a task whose experiment ran successfully.
func (s *Server) runTask(ctx context.Context, job *Job, idx int, t *Task) {
	setTask := func(fn func()) {
		job.mu.Lock()
		fn()
		job.mu.Unlock()
	}
	setTask(func() { t.Status = StatusRunning })
	job.bus.publish(Event{Type: EventStarted, Task: idx, Experiment: t.Experiment, Seed: t.Seed, Key: t.Key, Node: s.nodeName()})

	if ferr := s.fault.Fire(ctx, PointStoreGet); ferr != nil {
		s.countStoreError()
	} else if data, ok, err := s.opts.Store.GetBytes(t.Key); err != nil {
		// A store that cannot read is a cache miss, not a task failure.
		s.countStoreError()
	} else if ok {
		setTask(func() {
			t.Cached = true
			t.Result = data
			t.Status = StatusDone
		})
		s.mu.Lock()
		s.stats.TasksCached++
		s.mu.Unlock()
		job.bus.publish(Event{Type: EventCached, Task: idx, Key: t.Key, Cached: true, Node: s.nodeName()})
		return
	}

	// Cluster mode: a cache miss on a key owned by a peer is forwarded
	// there. Forward failure (peer down, slow, partitioned, torn response,
	// breaker open) is never task failure — the task degrades to local
	// compute, marked Degraded so callers can see it took the fallback path.
	degradeLocal := false
	if s.cluster != nil {
		if owner := t.Owner; owner != "" && owner != s.cluster.Self() {
			job.bus.publish(Event{Type: EventForwarded, Task: idx, Key: t.Key, Node: owner})
			res, err := s.forwardTask(ctx, job, idx, t)
			if err == nil {
				setTask(func() {
					t.Forwarded = true
					t.Cached = res.RemoteCached
					t.Degraded = res.RemoteDegraded
					t.Result = res.Data
					t.Status = StatusDone
				})
				s.mu.Lock()
				s.stats.TasksForwarded++
				s.mu.Unlock()
				// The terminal event is always published origin-side from the
				// forward result — exactly-once regardless of what the lossy
				// owner-side back-channel delivered.
				job.bus.publish(Event{
					Type: EventCompleted, Task: idx, Key: t.Key, Node: owner,
					Forwarded: true, Cached: res.RemoteCached, Degraded: res.RemoteDegraded,
				})
				return
			}
			if ctx.Err() != nil {
				setTask(func() {
					t.Status = StatusCancelled
					t.Error = contextReason(ctx)
				})
				job.bus.publish(Event{Type: EventCancelled, Task: idx, Key: t.Key, Error: contextReason(ctx)})
				return
			}
			degradeLocal = true
			s.mu.Lock()
			s.stats.ForwardDegraded++
			s.mu.Unlock()
			job.bus.publish(Event{Type: EventDegraded, Task: idx, Key: t.Key, Node: s.nodeName()})
		}
	}

	// Local compute: while anyone is watching, the run's machines carry a
	// sampling observer that publishes step commits onto the bus.
	cfg := harness.Config{Seed: t.Seed, Params: paramMap(t.Params)}
	if s.opts.StepSample > 0 && job.bus.HasSubscribers() {
		node := s.nodeName()
		cfg.Observer = s.stepSampler(func(st engine.StepStats) {
			job.bus.publish(Event{Type: EventStep, Task: idx, Machine: st.Machine, Superstep: st.Index, Cost: st.Cost, Node: node})
		})
	}
	var lastErr error
	for attempt := 1; attempt <= 1+s.opts.Retries; attempt++ {
		if attempt > 1 {
			s.mu.Lock()
			s.stats.TaskRetries++
			s.mu.Unlock()
			sleepCtx(ctx, retry.BackoffDelay(s.opts.Backoff, s.opts.BackoffMax, t.Key, attempt))
		}
		if ctx.Err() != nil {
			setTask(func() {
				t.Status = StatusCancelled
				t.Error = contextReason(ctx)
			})
			job.bus.publish(Event{Type: EventCancelled, Task: idx, Key: t.Key, Error: contextReason(ctx)})
			return
		}
		setTask(func() { t.Attempts = attempt })
		start := time.Now()
		res, err := s.safeRun(ctx, t.Experiment, cfg)
		wall := time.Since(start)
		if err != nil {
			lastErr = err
			continue
		}
		data, degraded, err := s.storeResult(ctx, t.Key, res)
		if err != nil {
			// Only reachable when the result cannot even be encoded;
			// retrying the run cannot fix that.
			lastErr = err
			break
		}
		setTask(func() {
			t.Result = data
			t.Degraded = degraded || degradeLocal
			t.WallMS = float64(wall.Microseconds()) / 1000
			t.Status = StatusDone
		})
		s.mu.Lock()
		s.stats.TasksRun++
		if degraded {
			s.stats.TasksDegraded++
		}
		s.mu.Unlock()
		job.bus.publish(Event{Type: EventCompleted, Task: idx, Key: t.Key, Degraded: degraded || degradeLocal, Node: s.nodeName()})
		return
	}
	errMsg := ""
	if lastErr != nil {
		errMsg = lastErr.Error()
	}
	setTask(func() {
		t.Status = StatusFailed
		t.Error = errMsg
	})
	job.bus.publish(Event{Type: EventFailed, Task: idx, Key: t.Key, Error: errMsg})
}

// storeResult persists res under key through the circuit breaker. When the
// breaker is open, or the write fails, the task degrades to
// compute-without-cache: the canonical bytes are returned with
// degraded=true and the job carries on. The returned error is non-nil only
// when the result cannot be encoded at all.
func (s *Server) storeResult(ctx context.Context, key string, res *result.Result) (data []byte, degraded bool, err error) {
	if s.breaker.Allow(time.Now()) {
		werr := s.fault.Fire(ctx, PointStorePut)
		if werr == nil {
			data, werr = s.opts.Store.Put(key, res)
		}
		if werr == nil {
			s.breaker.Success()
			return data, false, nil
		}
		s.breaker.Failure(time.Now())
		s.countStoreError()
	}
	data, err = res.CanonicalJSON()
	if err != nil {
		return nil, false, fmt.Errorf("service: encode result: %w", err)
	}
	return data, true, nil
}

// safeRun invokes the runner with panic recovery, converting a panicking
// experiment into an error the retry loop can handle. The PointRunner fault
// fires inside the recovery envelope, so injected panics exercise the same
// path as real ones.
func (s *Server) safeRun(ctx context.Context, id string, cfg harness.Config) (res *result.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.mu.Lock()
			s.stats.TaskPanics++
			s.mu.Unlock()
			err = fmt.Errorf("experiment %s panicked: %v\n%s", id, p, debug.Stack())
		}
	}()
	if ferr := s.fault.Fire(ctx, PointRunner); ferr != nil {
		return nil, ferr
	}
	return s.runner(id, cfg)
}
