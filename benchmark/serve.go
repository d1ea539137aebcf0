package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parbw/internal/harness"
	"parbw/internal/service"
)

// serveWarm is the cache-hit serve path: a store populated with `all` ×
// quick × warmSeeds seeds, opened under a fresh server, then closed-loop
// clients each sending its next fully cached sweep as soon as the last one
// answers. Requests walk a PRNG(seed) permutation of the populated cells over
// and over; the walk is longer than the store's in-memory LRU, so the order
// decides how often a hit comes from memory or from disk.
type serveWarm struct {
	o       options
	dir     string
	ref     map[string][]byte // populated result bytes by key
	reqs    []warmRequest     // in walk order
	next    atomic.Int64
	plain   *node
	traced  *node // the same store directory, traced
	outputs checker
}

// warmClients is how many closed-loop clients send requests.
const warmClients = 2

// warmCells is how many cells one request asks for: one experiment × this
// many seeds.
const warmCells = 8

type warmRequest struct {
	body []byte
	keys []string
}

// setup opens the populated store under fresh measured server(s) and warms
// them with one walk over every request. The first setup populates the
// store; that is a cold sweep, which sweep-cold measures, so later setups
// reuse it.
func (w *serveWarm) setup() error {
	w.stop()
	if w.ref == nil {
		if err := w.populate(); err != nil {
			return err
		}
	}
	var err error
	if w.plain, err = startNode(w.dir, w.o.scale.warmMaxMem, nil); err != nil {
		return err
	}
	if w.o.tr != nil {
		if w.traced, err = startNode(w.dir, w.o.scale.warmMaxMem, w.o.tr); err != nil {
			return err
		}
	}
	for _, nd := range []*node{w.plain, w.traced} {
		if nd == nil {
			continue
		}
		for i := range w.reqs {
			if _, _, err := w.request(nd, &w.reqs[i], nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// populate computes `all` × quick × warmSeeds seeds into a fresh store
// through the service and lays out the request walk over them.
func (w *serveWarm) populate() error {
	w.dir = filepath.Join(w.o.workdir, "serve-warm")
	seeds := sweepSeeds(w.o.seed, w.o.scale.warmSeeds)
	pop, err := startNode(w.dir, w.o.scale.warmMaxMem, nil)
	if err != nil {
		return err
	}
	exps := w.o.scale.experiments()
	sum, err := postRun(pop.client, pop.ts.URL, sweepBody(w.o.scale.request(), seeds, true), http.StatusOK)
	if err == nil {
		w.ref, err = jobOutput(pop.srv, sum.ID, len(exps)*len(seeds), false)
	}
	pop.stop()
	if err != nil {
		return fmt.Errorf("populate: %w", err)
	}

	w.reqs = w.reqs[:0]
	for _, e := range exps {
		for lo := 0; lo < len(seeds); lo += warmCells {
			chunk := seeds[lo:min(lo+warmCells, len(seeds))]
			var req warmRequest
			for _, s := range chunk {
				req.keys = append(req.keys, runKey(e.ID, harness.Config{Seed: s, Params: harness.QuickParams()}))
			}
			var err error
			if req.body, err = json.Marshal(service.RunRequest{Experiments: []string{e.ID}, Seeds: chunk, Quick: true}); err != nil {
				return err
			}
			w.reqs = append(w.reqs, req)
		}
	}
	rng := rand.New(rand.NewPCG(w.o.seed, uint64(len(w.reqs))))
	rng.Shuffle(len(w.reqs), func(i, j int) { w.reqs[i], w.reqs[j] = w.reqs[j], w.reqs[i] })
	return nil
}

// request sends one sweep, checks every returned result against the
// populated bytes, and returns its latency and job summary.
func (w *serveWarm) request(nd *node, req *warmRequest, tr *tracer) (time.Duration, service.JobSummary, error) {
	root := tr.open(spanHTTP, "", 0)
	for _, k := range req.keys {
		tr.bind(k, root)
	}
	start := time.Now()
	sum, err := postRun(nd.client, nd.ts.URL, req.body, http.StatusOK)
	lat := time.Since(start)
	tr.close(root, 0)
	for _, k := range req.keys {
		tr.unbind(k)
	}
	if err != nil {
		return lat, sum, err
	}
	out, err := jobOutput(nd.srv, sum.ID, len(req.keys), true)
	if err != nil {
		return lat, sum, err
	}
	for _, k := range req.keys {
		if !bytes.Equal(out[k], w.ref[k]) {
			return lat, sum, fmt.Errorf("result %s differs from the populated bytes", k)
		}
	}
	return lat, sum, nil
}

// op is one phase: warmClients clients sending requests for a tenth of the
// run.
func (w *serveWarm) op(k kind) sample {
	tr := w.o.tracerFor(k)
	nd := w.plain
	if k.traced {
		nd = w.traced
	}
	s := sample{kind: k, st: stats{}}
	mark := tr.mark()
	st0, rs0 := nd.srv.Stats(), nd.store.Stats()
	phase := max(w.o.seconds/10, 50*time.Millisecond)

	type clientOut struct {
		lat        []float64
		queue, run []float64
		http       []float64
		failed     int
	}
	outs := make([]clientOut, warmClients)
	var wg sync.WaitGroup
	a0 := allocated()
	start := time.Now()
	for c := range outs {
		wg.Add(1)
		go func(out *clientOut) {
			defer wg.Done()
			for time.Since(start) < phase {
				req := &w.reqs[int(w.next.Add(1)-1)%len(w.reqs)]
				lat, sum, err := w.request(nd, req, tr)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: serve-warm: %v\n", err)
					out.failed++
					continue
				}
				out.lat = append(out.lat, durMS(lat))
				if sum.Started != nil && sum.Finished != nil {
					out.queue = append(out.queue, durMS(sum.Started.Sub(sum.Created)))
					out.run = append(out.run, durMS(sum.Finished.Sub(*sum.Started)))
					out.http = append(out.http, durMS(lat-sum.Finished.Sub(sum.Created)))
				}
			}
		}(&outs[c])
	}
	wg.Wait()
	s.dur = time.Since(start)
	s.alloc = allocated() - a0

	var queue, run, httpT []float64
	for _, out := range outs {
		s.lat = append(s.lat, out.lat...)
		s.failed += out.failed
		queue, run, httpT = append(queue, out.queue...), append(run, out.run...), append(httpT, out.http...)
	}
	s.items = len(s.lat)
	s.ops = s.items + s.failed
	s.st["service.queue_wait_ms"] = median(queue)
	s.st["service.exec_ms"] = median(run)
	s.st["service.http_ms"] = median(httpT)

	// Counters are per request.
	st1, rs1 := nd.srv.Stats(), nd.store.Stats()
	n := float64(max(s.ops, 1))
	s.st["service.tasks_run"] = float64(st1.TasksRun-st0.TasksRun) / n
	s.st["service.tasks_cached"] = float64(st1.TasksCached-st0.TasksCached) / n
	s.st["service.task_retries"] = float64(st1.TaskRetries-st0.TaskRetries) / n
	s.st["service.task_panics"] = float64(st1.TaskPanics-st0.TaskPanics) / n
	s.st["service.tasks_degraded"] = float64(st1.TasksDegraded-st0.TasksDegraded) / n
	s.st["runstore.disk_hits"] = float64(rs1.DiskHits-rs0.DiskHits) / n
	s.st["runstore.evictions"] = float64(rs1.Evictions-rs0.Evictions) / n
	if hits := rs1.Hits - rs0.Hits; hits > 0 {
		s.st["runstore.mem_hit_ratio"] = float64(rs1.MemHits-rs0.MemHits) / float64(hits)
	}
	if k.traced {
		perRequestSpanStats(tr.since(mark), s.st)
	}
	return s
}

// perRequestSpanStats sets span-derived values to their median over the
// requests of a phase.
func perRequestSpanStats(spans []span, st stats) {
	byReq := map[int][]span{}
	for _, sp := range spans {
		byReq[sp.Req] = append(byReq[sp.Req], sp)
	}
	vals := map[string][]float64{}
	for _, group := range byReq {
		one := stats{}
		spanStats(group, 1, one)
		for k, v := range one {
			vals[k] = append(vals[k], v)
		}
	}
	for k, vs := range vals {
		st[k] = median(vs)
	}
}

// check requires that no request ran an experiment: every cell came from
// the store.
func (w *serveWarm) check(r *report, samples []sample, _ stats) {
	for _, nd := range []*node{w.plain, w.traced} {
		if nd != nil {
			if n := nd.srv.Stats().TasksRun; n != 0 {
				r.fail("%d tasks ran on the warm server, want 0", n)
			}
		}
	}
	w.outputs = checker{want: digest(w.ref)}
	w.outputs.finish(r, w.o)
	runtime.GC()
	live := float64(heapRead("/gc/heap/live:bytes")) / (1 << 20)
	lats := latencies(pick(samples, kind{w.o.n, false}))
	r.row = append(r.row, fmt.Sprintf("keys=%d walk=%d latency_p99_ms=%.4g latency_p99.9_ms=%.4g n=%d live_heap_mb=%.4g",
		len(w.ref), len(w.reqs), percentile(lats, 99), percentile(lats, 99.9), len(lats), live))
}

// stop stops the measured servers and keeps the populated store.
func (w *serveWarm) stop() {
	w.plain.stop()
	w.traced.stop()
	w.plain, w.traced = nil, nil
}

func (w *serveWarm) close() {
	w.stop()
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
