package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parbw/internal/bsp"
	"parbw/internal/fault"
	"parbw/internal/harness"
	"parbw/internal/model"
	"parbw/internal/result"
	"parbw/internal/runstore"
)

// The chaos suite: every test drives the service through a seeded
// internal/fault plan — injected disk errors, partial writes, panics, slow
// runners, overload, shutdown — and asserts the service degrades (sheds,
// retries, quarantines, drains) instead of wedging or corrupting state.
// Plans use fixed seeds, so a failure here replays bit-identically.

// chaosSeed fixes every plan in this file; change it and the suite must
// still pass (the assertions are behavioral), but any single run is
// reproducible.
const chaosSeed = 0xC0FFEE

// assertStoreClean runs a full scrub and fails the test if any corrupt or
// half-written entry survived the chaos.
func assertStoreClean(t *testing.T, s *runstore.Store) {
	t.Helper()
	rep, err := s.Scrub()
	if err != nil {
		t.Fatalf("final scrub: %v", err)
	}
	if rep.Quarantined != 0 || rep.TmpSwept != 0 {
		t.Fatalf("store not clean after chaos: %+v", rep)
	}
}

// waitState waits for the job to reach a terminal state.
func waitState(t *testing.T, job *Job) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	state := job.Wait(ctx)
	if state == "" {
		t.Fatal("job did not reach a terminal state: service wedged")
	}
	return state
}

func TestChaosInjectedPanicsAreRetriedWithBackoff(t *testing.T) {
	plan := fault.NewPlan(chaosSeed, fault.Rule{Point: PointRunner, Kind: fault.Panic, Count: 2})
	s := newTestServer(t, Options{Retries: 2, Workers: 1, Backoff: time.Millisecond, Fault: plan})

	job, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if state := waitState(t, job); state != StatusDone {
		t.Fatalf("state %q, want done (panics exhausted before retries)", state)
	}
	v := job.View()
	if v.Tasks[0].Attempts != 3 || v.Tasks[0].Cached {
		t.Fatalf("task = %+v, want 3 attempts", v.Tasks[0])
	}
	st := s.Stats()
	if st.TaskPanics != 2 || st.TaskRetries != 2 {
		t.Fatalf("stats = %+v, want 2 panics / 2 retries", st)
	}
	if plan.Fired(PointRunner) != 2 {
		t.Fatalf("plan fired %d times, want 2", plan.Fired(PointRunner))
	}
	assertStoreClean(t, s.Store())
}

func TestChaosPersistentErrorsFailWithoutWedging(t *testing.T) {
	plan := fault.NewPlan(chaosSeed, fault.Rule{Point: PointRunner, Kind: fault.Error})
	s := newTestServer(t, Options{Retries: 1, Workers: 1, Backoff: time.Millisecond, Fault: plan})
	job, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if state := waitState(t, job); state != StatusFailed {
		t.Fatalf("state %q, want failed", state)
	}
	v := job.View()
	if v.Tasks[0].Attempts != 2 || !strings.Contains(v.Tasks[0].Error, "injected") {
		t.Fatalf("task = %+v", v.Tasks[0])
	}
	assertStoreClean(t, s.Store())
}

func TestChaosSlowRunnerHitsJobTimeoutCleanly(t *testing.T) {
	plan := fault.NewPlan(chaosSeed, fault.Rule{Point: PointRunner, Kind: fault.Slow, Delay: time.Minute})
	s := newTestServer(t, Options{Workers: 1, Fault: plan})
	job, err := s.Submit(RunRequest{
		Experiments: []string{"table1/broadcast", "table1/parity", "sched/static"},
		Quick:       true,
		TimeoutMS:   50,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if state := waitState(t, job); state != StatusCancelled {
		t.Fatalf("state %q, want cancelled (timeout)", state)
	}
	// The injected minute-long stall must not hold the job past its
	// deadline: Slow faults respect the task context.
	if time.Since(start) > 10*time.Second {
		t.Fatal("timeout did not cut the injected stall short")
	}
	sawTimeout := false
	for _, task := range job.View().Tasks {
		if task.Error == "job timeout" {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Fatalf("no task blamed the timeout: %+v", job.View().Tasks)
	}
	assertStoreClean(t, s.Store())
}

// Store writes fail persistently: the breaker opens after the threshold and
// every task still completes, degraded to compute-without-cache.
func TestChaosStoreWriteFailuresOpenBreakerAndDegrade(t *testing.T) {
	plan := fault.NewPlan(chaosSeed, fault.Rule{Point: PointStorePut, Kind: fault.Error})
	s := newTestServer(t, Options{
		Workers:          1,
		Backoff:          time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		Fault:            plan,
	})
	job, err := s.Submit(RunRequest{
		Experiments: []string{"table1/broadcast"},
		Seeds:       []uint64{1, 2, 3, 4, 5},
		Quick:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if state := waitState(t, job); state != StatusDone {
		t.Fatalf("state %q, want done — store failure must not fail jobs", state)
	}
	for _, task := range job.View().Tasks {
		if task.Status != StatusDone || !task.Degraded || len(task.Result) == 0 {
			t.Fatalf("task = %+v, want done+degraded with payload", task)
		}
	}
	st := s.Stats()
	if st.TasksDegraded != 5 || st.StoreErrors != 2 || st.BreakerOpens != 1 || !st.BreakerOpen {
		t.Fatalf("stats = %+v, want 5 degraded, 2 store errors, breaker open", st)
	}
	// Once open, the breaker stops even *attempting* writes: the injection
	// point was only reached threshold-many times.
	if plan.Fired(PointStorePut) != 2 {
		t.Fatalf("store.put fired %d times, want 2 (breaker short-circuit)", plan.Fired(PointStorePut))
	}
	// Nothing was cached, and nothing was corrupted.
	if keys, err := s.Store().DiskKeys(); err != nil || len(keys) != 0 {
		t.Fatalf("degraded run left entries: %v, %v", keys, err)
	}
	assertStoreClean(t, s.Store())
}

// Torn disk writes (injected at the filesystem seam) leave no visible
// entry, no orphaned temp file, and the task degrades instead of failing.
func TestChaosPartialWritesLeaveNoTornState(t *testing.T) {
	plan := fault.NewPlan(chaosSeed, fault.Rule{Point: "store.fs.write", Kind: fault.PartialWrite})
	store, err := runstore.OpenFS(t.TempDir(), 8, fault.InjectFS(fault.OS, plan, "store.fs."))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Store: store, Workers: 1, Backoff: time.Millisecond, BreakerThreshold: 1, BreakerCooldown: time.Hour})

	job, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Seeds: []uint64{1, 2}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if state := waitState(t, job); state != StatusDone {
		t.Fatalf("state %q, want done", state)
	}
	for _, task := range job.View().Tasks {
		if task.Status != StatusDone || !task.Degraded {
			t.Fatalf("task = %+v, want done+degraded", task)
		}
	}
	if keys, err := store.DiskKeys(); err != nil || len(keys) != 0 {
		t.Fatalf("torn writes left entries: %v, %v", keys, err)
	}
	// No half-written file anywhere: temp removed at write time, nothing to
	// sweep or quarantine.
	assertStoreClean(t, store)
}

// A corrupt entry on disk is quarantined on first touch, recomputed, and
// healed by the recompute's write — the "500s forever" mode is gone.
func TestChaosCorruptEntryQuarantinedRecomputedAndHealed(t *testing.T) {
	dir := t.TempDir()
	store, err := runstore.Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Store: store, Workers: 1})

	// Seed the store with a corrupt file at exactly the key the task will
	// look up.
	e, _ := harness.ByID("table1/broadcast")
	vals, err := e.Resolve(harness.QuickParams())
	if err != nil {
		t.Fatal(err)
	}
	key := runstore.Key(runstore.KeySpec{
		Experiment: "table1/broadcast", Seed: 1, Params: vals.Canonical(), Version: harness.CodeVersion,
	})
	path := filepath.Join(dir, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"experiment":"table1/broadcast",`), 0o644); err != nil {
		t.Fatal(err)
	}

	job, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if state := waitState(t, job); state != StatusDone {
		t.Fatalf("state %q, want done", state)
	}
	task := job.View().Tasks[0]
	if task.Cached || task.Degraded {
		t.Fatalf("task = %+v, want a clean recompute", task)
	}
	if st := store.Stats(); st.Quarantined != 1 {
		t.Fatalf("store stats = %+v, want 1 quarantined", st)
	}
	// The corrupt bytes moved aside for post-mortem; the slot healed.
	if _, err := os.Stat(filepath.Join(dir, runstore.QuarantineDir, key+".json")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	data, ok, err := store.GetBytes(key)
	if err != nil || !ok {
		t.Fatalf("healed entry unreadable: ok=%v err=%v", ok, err)
	}
	if string(data) != string(task.Result) {
		t.Fatal("healed entry differs from the task result")
	}
	assertStoreClean(t, store)
}

// Injected read faults at the store seam surface as cache misses plus a
// recompute, never as task failures.
func TestChaosReadFaultsRecompute(t *testing.T) {
	plan := fault.NewPlan(chaosSeed, fault.Rule{Point: PointStoreGet, Kind: fault.Error})
	s := newTestServer(t, Options{Workers: 1, Fault: plan})

	// First job populates the store (reads faulted, writes fine), second
	// job would be cache-served but its read also faults → recompute again.
	for i := 0; i < 2; i++ {
		job, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if state := waitState(t, job); state != StatusDone {
			t.Fatalf("job %d: state %q", i, state)
		}
		if task := job.View().Tasks[0]; task.Cached {
			t.Fatalf("job %d served from cache through a read fault", i)
		}
	}
	st := s.Stats()
	if st.StoreErrors != 2 || st.TasksRun != 2 || st.TasksCached != 0 {
		t.Fatalf("stats = %+v, want 2 store errors, 2 recomputes", st)
	}
	assertStoreClean(t, s.Store())
}

// Overload: a full queue sheds with a typed error and HTTP 503 +
// Retry-After instead of admitting work it cannot start.
func TestChaosQueueFullSheds503(t *testing.T) {
	release := make(chan struct{})
	var started atomic.Int32
	slow := func(id string, cfg harness.Config) (*result.Result, error) {
		started.Add(1)
		<-release
		return DefaultRunner(id, cfg)
	}
	s := newTestServer(t, Options{Runner: slow, Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(release)

	body := `{"experiments":["table1/broadcast"],"quick":true,"wait":false}`
	job1, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for started.Load() == 0 {
		time.Sleep(time.Millisecond) // job1 must be running, not queued
	}
	if _, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true}); err != nil {
		t.Fatalf("queue slot free, submit failed: %v", err)
	}

	var full *QueueFullError
	_, err = s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true})
	if !errors.As(err, &full) {
		t.Fatalf("overload error = %v, want QueueFullError", err)
	}
	if full.Depth != 1 || full.RetryAfter <= 0 {
		t.Fatalf("shed error = %+v", full)
	}

	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if st := s.Stats(); st.JobsShed != 2 {
		t.Fatalf("stats = %+v, want 2 shed", st)
	}
	_ = job1
}

// Graceful drain: running jobs finish, queued jobs cancel, new submissions
// shed, readiness goes false — and the drain completes cleanly.
func TestChaosShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	var started atomic.Int32
	slow := func(id string, cfg harness.Config) (*result.Result, error) {
		started.Add(1)
		<-release
		return DefaultRunner(id, cfg)
	}
	s := newTestServer(t, Options{Runner: slow, Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.Ready(); err != nil {
		t.Fatalf("fresh server not ready: %v", err)
	}
	if code := getJSON(t, ts, "/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", code)
	}

	running, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Seeds: []uint64{99}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	go func() { shutdownDone <- s.Shutdown(ctx) }()

	// Draining is visible immediately; submissions shed; readiness false.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Stats().Draining {
		if time.Now().After(deadline) {
			t.Fatal("draining flag never set")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}
	resp, err := http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(`{"experiments":["table1/broadcast"],"quick":true,"wait":false}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("drain POST = %d (Retry-After %q), want 503 + hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code := getJSON(t, ts, "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", code)
	}
	if code := getJSON(t, ts, "/healthz?ready=1", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz?ready=1 during drain = %d, want 503", code)
	}
	// Liveness stays green while draining.
	if code := getJSON(t, ts, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200", code)
	}

	// The queued job cancels promptly, before the running one finishes.
	if state := queued.Wait(ctx); state != StatusCancelled {
		t.Fatalf("queued job state %q, want cancelled", state)
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain did not complete cleanly: %v", err)
	}
	if state := running.Wait(ctx); state != StatusDone {
		t.Fatalf("running job state %q, want done (drain lets it finish)", state)
	}
	assertStoreClean(t, s.Store())
}

// A drain whose deadline expires hard-cancels instead of hanging.
func TestChaosShutdownDeadlineForcesHardCancel(t *testing.T) {
	var started atomic.Int32
	slow := func(id string, cfg harness.Config) (*result.Result, error) {
		started.Add(1)
		time.Sleep(300 * time.Millisecond) // deliberately ignores the drain
		return DefaultRunner(id, cfg)
	}
	s := newTestServer(t, Options{Runner: slow, Workers: 1})
	job, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for started.Load() == 0 {
		time.Sleep(time.Millisecond) // drain must catch the job mid-run
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown = %v, want deadline exceeded", err)
	}
	// The job reached a terminal state and the server is fully closed.
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if state := job.Wait(wctx); state == "" || state == StatusRunning {
		t.Fatalf("job state %q after hard cancel", state)
	}
	if err := s.Ready(); err == nil {
		t.Fatal("closed server reports ready")
	}
}

// Readiness actually probes the store: a store that cannot persist flips
// /readyz to 503 while /healthz stays 200.
func TestChaosReadinessProbesStoreWritability(t *testing.T) {
	plan := fault.NewPlan(chaosSeed, fault.Rule{Point: "store.fs.create", Kind: fault.Error})
	store, err := runstore.OpenFS(t.TempDir(), 8, fault.InjectFS(fault.OS, plan, "store.fs."))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Store: store})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := getJSON(t, ts, "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with dead store = %d, want 503", code)
	}
	if code := getJSON(t, ts, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz with dead store = %d, want 200 (still live)", code)
	}
}

// The acceptance property in one shot: the same seed replays the same
// chaos. Two servers, identical plans mixing probabilistic runner errors
// and store-write faults, single-worker execution: the fault event logs and
// the final task states must match exactly.
func TestChaosDeterministicReplay(t *testing.T) {
	runOnce := func() ([]fault.Event, []string, Stats) {
		plan := fault.NewPlan(chaosSeed,
			fault.Rule{Point: PointRunner, Kind: fault.Error, Prob: 0.4},
			fault.Rule{Point: PointStorePut, Kind: fault.Error, Prob: 0.5},
		)
		s := newTestServer(t, Options{
			Workers: 1, Retries: 2, Backoff: time.Millisecond,
			BreakerThreshold: -1, // keep every put attempt observable
			Fault:            plan,
		})
		job, err := s.Submit(RunRequest{
			Experiments: []string{"table1/broadcast"},
			Seeds:       []uint64{1, 2, 3, 4, 5, 6},
			Quick:       true,
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, job)
		assertStoreClean(t, s.Store())
		var states []string
		for _, task := range job.View().Tasks {
			states = append(states, task.Status)
		}
		return plan.Events(), states, s.Stats()
	}

	ev1, st1, stats1 := runOnce()
	ev2, st2, stats2 := runOnce()
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("fault logs diverged:\n%+v\n---\n%+v", ev1, ev2)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("task states diverged: %v vs %v", st1, st2)
	}
	if len(ev1) == 0 {
		t.Fatal("plan injected nothing; the replay test is vacuous")
	}
	if stats1.TaskRetries != stats2.TaskRetries || stats1.StoreErrors != stats2.StoreErrors ||
		stats1.TasksDegraded != stats2.TasksDegraded {
		t.Fatalf("counters diverged: %+v vs %+v", stats1, stats2)
	}
}

// The writeJSON satellite: encode failures are counted, not dropped.
func TestEncodeErrorsCounted(t *testing.T) {
	s := newTestServer(t, Options{})
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if st := s.Stats(); st.EncodeErrors != 1 {
		t.Fatalf("stats = %+v, want 1 encode error", st)
	}
}

// A processor program that panics inside a multi-worker sweep fails its own
// task with the engine's panic message; the server survives and runs the
// next job. The task runs on a pool helper goroutine, so this needs the
// worker pool to hand the panic back to the task instead of crashing the
// process.
func TestProgramPanicFailsOneTask(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var bad atomic.Bool
	bad.Store(true)
	runner := func(id string, cfg harness.Config) (*result.Result, error) {
		if bad.Load() {
			m := bsp.New(bsp.Config{P: 8, Cost: model.BSPm(2, 1)})
			m.Superstep(func(c *bsp.Ctx) { c.Send(8+c.ID(), 0, 1) })
		}
		return DefaultRunner(id, cfg)
	}
	s := newTestServer(t, Options{Runner: runner, Workers: 2, Retries: -1})
	job, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Seeds: []uint64{1, 2}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if state := waitState(t, job); state != StatusFailed {
		t.Fatalf("job state %q, want failed", state)
	}
	for _, task := range job.View().Tasks {
		if task.Status != StatusFailed || !strings.Contains(task.Error, "bsp: proc 0 send to invalid dst 8 (p=8)") {
			t.Fatalf("task = %+v, want failed with proc 0's invalid-dst panic", task)
		}
	}
	bad.Store(false)
	next, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Seeds: []uint64{3}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if state := waitState(t, next); state != StatusDone {
		t.Fatalf("next job state %q, want done", state)
	}
}
