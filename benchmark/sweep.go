package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parbw/internal/engine"
	"parbw/internal/fault"
	"parbw/internal/runstore"
	"parbw/internal/service"
)

// node is one in-process run server on its own store, behind a loopback
// listener, with the client that talks to it.
type node struct {
	store  *runstore.Store
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

// startNode serves the store in dir; maxMem bounds the store's memory layer,
// 0 for its default. With a tracer, the runner and the store's filesystem
// record spans.
func startNode(dir string, maxMem int, tr *tracer) (*node, error) {
	fsys := fault.OS
	opts := service.Options{}
	if tr != nil {
		fsys = tr.fs()
		opts.Runner = tr.runner()
	}
	store, err := runstore.OpenFS(dir, maxMem, fsys)
	if err != nil {
		return nil, err
	}
	opts.Store = store
	srv, err := service.New(opts)
	if err != nil {
		return nil, err
	}
	return &node{
		store:  store,
		srv:    srv,
		ts:     httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: warmClients}},
	}, nil
}

func (nd *node) stop() {
	if nd == nil {
		return
	}
	nd.client.CloseIdleConnections()
	nd.ts.Close()
	nd.srv.Close()
}

// postRun submits a sweep and decodes the job summary it answers with.
func postRun(c *http.Client, url string, body []byte, wantStatus int) (service.JobSummary, error) {
	var sum service.JobSummary
	resp, err := c.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return sum, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return sum, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != wantStatus {
		return sum, fmt.Errorf("POST /v1/runs answered %d: %.200s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		return sum, fmt.Errorf("decode job summary: %w", err)
	}
	return sum, nil
}

// jobOutput returns a finished job's result bytes by store key, and an error
// unless every one of its want tasks is done, computed on the normal path.
func jobOutput(srv *service.Server, id string, want int, cached bool) (map[string][]byte, error) {
	job, ok := srv.Job(id)
	if !ok {
		return nil, fmt.Errorf("job %s not found", id)
	}
	v := job.View()
	if v.State != service.StatusDone || len(v.Tasks) != want {
		return nil, fmt.Errorf("job %s: state %s with %d tasks, want done with %d", id, v.State, len(v.Tasks), want)
	}
	out := make(map[string][]byte, len(v.Tasks))
	for _, t := range v.Tasks {
		if t.Status != service.StatusDone || t.Degraded || t.Cached != cached {
			return nil, fmt.Errorf("job %s task %s seed %d: status %s degraded=%v cached=%v",
				id, t.Experiment, t.Seed, t.Status, t.Degraded, t.Cached)
		}
		out[t.Key] = t.Result
	}
	return out, nil
}

// sweep is a cold sweep: `all` × quick × sweepSeeds seeds posted to a fresh
// server on an empty store, built outside the timed span. With stream set,
// the job is submitted without waiting and one subscriber reads its SSE
// events to the end.
type sweep struct {
	o       options
	name    string
	stream  bool
	body    []byte
	cells   int
	dirs    int // store directories handed out, for unique names
	outputs checker
}

// seeds are the sweep's seeds; each benchmark seed owns a disjoint range.
func sweepSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = 1 + (seed-1)*uint64(n) + uint64(i)
	}
	return out
}

func sweepBody(exps []string, seeds []uint64, wait bool) []byte {
	body, err := json.Marshal(service.RunRequest{Experiments: exps, Seeds: seeds, Quick: true, Wait: &wait})
	if err != nil {
		panic(err)
	}
	return body
}

// setup builds a node and runs a one-seed sweep through it.
func (w *sweep) setup() error {
	exps := len(w.o.scale.experiments())
	w.cells = exps * w.o.scale.sweepSeeds
	w.body = sweepBody(w.o.scale.request(), sweepSeeds(w.o.seed, w.o.scale.sweepSeeds), !w.stream)
	dir := w.dir()
	defer os.RemoveAll(dir)
	nd, err := startNode(dir, 0, nil)
	if err != nil {
		return err
	}
	defer nd.stop()
	// A seed outside every measured range, so the set-up computes nothing
	// the measured jobs need.
	sum, err := postRun(nd.client, nd.ts.URL, sweepBody(w.o.scale.request(), []uint64{w.o.seed + 1<<32}, true), http.StatusOK)
	if err != nil {
		return err
	}
	_, err = jobOutput(nd.srv, sum.ID, exps, false)
	return err
}

func (w *sweep) dir() string {
	w.dirs++
	return filepath.Join(w.o.workdir, fmt.Sprintf("%s-%d", w.name, w.dirs))
}

// op is one job on a fresh node.
func (w *sweep) op(k kind) sample {
	tr := w.o.tracerFor(k)
	s := sample{kind: k, ops: 1, st: stats{}}
	dir := w.dir()
	defer os.RemoveAll(dir)
	nd, err := startNode(dir, 0, tr)
	if err != nil {
		s.failed = 1
		return s
	}
	defer nd.stop()

	mark := tr.mark()
	c0 := engine.GlobalCounters()
	var sum service.JobSummary
	a0 := allocated()
	start := time.Now()
	if w.stream {
		root := tr.openRoot(spanSSE)
		sum, err = w.streamJob(nd, s.st)
		tr.close(root, 0)
	} else {
		root := tr.openRoot(spanHTTP)
		sum, err = postRun(nd.client, nd.ts.URL, w.body, http.StatusOK)
		tr.close(root, 0)
	}
	s.dur = time.Since(start)
	s.alloc = allocated() - a0
	s.lat = []float64{durMS(s.dur)}
	c1 := engine.GlobalCounters()
	if err == nil {
		var out map[string][]byte
		if out, err = jobOutput(nd.srv, sum.ID, w.cells, false); err == nil && !w.outputs.match(digest(out)) {
			err = fmt.Errorf("digest differs from the first job's")
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		s.failed = 1
		return s
	}

	s.items = w.cells
	s.st["engine.supersteps"] = float64(c1.Supersteps - c0.Supersteps)
	s.st["engine.messages"] = float64(c1.Messages - c0.Messages)
	if job, ok := nd.srv.Job(sum.ID); ok {
		sum = job.Summary()
	}
	if sum.Started != nil && sum.Finished != nil {
		s.st["service.queue_wait_ms"] = durMS(sum.Started.Sub(sum.Created))
		s.st["service.exec_ms"] = durMS(sum.Finished.Sub(*sum.Started))
		s.st["service.http_ms"] = durMS(s.dur - sum.Finished.Sub(sum.Created))
	}
	addServerStats(s.st, nd)
	if k.traced {
		spanStats(tr.since(mark), k.procs, s.st)
	}
	return s
}

// addServerStats adds a node's service and store counters.
func addServerStats(st stats, nd *node) {
	ss := nd.srv.Stats()
	st["service.tasks_run"] += float64(ss.TasksRun)
	st["service.tasks_cached"] += float64(ss.TasksCached)
	st["service.task_retries"] += float64(ss.TaskRetries)
	st["service.task_panics"] += float64(ss.TaskPanics)
	st["service.tasks_degraded"] += float64(ss.TasksDegraded)
	st["service.stream_events_published"] += float64(ss.StreamEventsPublished)
	st["service.stream_events_dropped"] += float64(ss.StreamEventsDropped)
	st["service.stream_events_coalesced"] += float64(ss.StreamEventsCoalesced)
	rs := nd.store.Stats()
	st["runstore.disk_hits"] += float64(rs.DiskHits)
	st["runstore.evictions"] += float64(rs.Evictions)
}

// streamJob submits the sweep without waiting, reads its event stream to the
// end, and checks that every cell got exactly one terminal event.
func (w *sweep) streamJob(nd *node, st stats) (service.JobSummary, error) {
	sum, err := postRun(nd.client, nd.ts.URL, w.body, http.StatusAccepted)
	if err != nil {
		return sum, err
	}
	resp, err := nd.client.Get(nd.ts.URL + "/v1/runs/" + sum.ID + "/events")
	if err != nil {
		return sum, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sum, fmt.Errorf("GET events answered %d", resp.StatusCode)
	}
	terminals := make([]int, w.cells)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var typ string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && service.TerminalEvent(typ):
			var ev service.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return sum, fmt.Errorf("decode %s event: %w", typ, err)
			}
			if ev.Task < 0 || ev.Task >= w.cells {
				return sum, fmt.Errorf("%s event for task %d of %d", typ, ev.Task, w.cells)
			}
			terminals[ev.Task]++
		case line == "" && typ != "":
			st["service.sse_frames"]++
			switch typ {
			case service.EventStep:
				st["service.sse_step_frames"]++
			case service.EventGap:
				st["service.sse_gap_frames"]++
			}
			typ = ""
		}
	}
	end := time.Now()
	if err := sc.Err(); err != nil {
		return sum, fmt.Errorf("read events: %w", err)
	}
	for i, n := range terminals {
		if n != 1 {
			return sum, fmt.Errorf("task %d got %d terminal events, want 1", i, n)
		}
	}
	if job, ok := nd.srv.Job(sum.ID); ok {
		if f := job.Summary().Finished; f != nil {
			st["service.sse_final_lag_ms"] = durMS(end.Sub(*f))
		}
	}
	return sum, nil
}

// check compares a streamed sweep's output with a plain sweep of the same
// cells, which it must reproduce byte for byte; that job's time is the base
// of subscriber_cost.
func (w *sweep) check(r *report, samples []sample, extra stats) {
	if w.stream {
		dir := w.dir()
		defer os.RemoveAll(dir)
		nd, err := startNode(dir, 0, nil)
		if err != nil {
			r.fail("reference sweep: %v", err)
			return
		}
		defer nd.stop()
		start := time.Now()
		sum, err := postRun(nd.client, nd.ts.URL, sweepBody(w.o.scale.request(), sweepSeeds(w.o.seed, w.o.scale.sweepSeeds), true), http.StatusOK)
		plain := time.Since(start)
		var out map[string][]byte
		if err == nil {
			out, err = jobOutput(nd.srv, sum.ID, w.cells, false)
		}
		switch {
		case err != nil:
			r.fail("reference sweep: %v", err)
		case digest(out) != w.outputs.want:
			r.fail("output differs from a plain sweep of the same cells")
		}
		extra["service.subscriber_cost"] = median(latencies(pick(samples, kind{w.o.n, false}))) / durMS(plain)
	}
	w.outputs.finish(r, w.o)
	r.row = append(r.row, fmt.Sprintf("cells=%d", w.cells))
}

func (w *sweep) close() {}
