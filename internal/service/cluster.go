package service

// Cluster-mode glue: the origin side (forwardTask ships a cache miss to the
// key's owning peer) and the owner side (handleClusterRun answers a forward
// with verified result bytes). The invariant both sides maintain is that a
// forwarded task produces exactly the bytes a local run of the same task
// would have produced — the experiments are deterministic and the store is
// content-addressed, so cluster placement is an optimization, never a
// semantic change. See internal/cluster for the ring and the failure policy.

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"

	"parbw/internal/cluster"
	"parbw/internal/engine"
	"parbw/internal/harness"
	"parbw/internal/retry"
	"parbw/internal/runstore"
)

// forwardTask ships one task to its owning peer. Params travel as the
// resolved canonical assignment, so the owner's Resolve is the identity and
// the re-derived key matches unless the nodes disagree on code version.
// While the job has live stream subscribers (and step events are enabled),
// the request also asks the owner to post progress events back — terminal
// events never travel that way; the origin publishes them from the forward
// result, which is what keeps the stream exactly-once per task.
func (s *Server) forwardTask(ctx context.Context, job *Job, idx int, t *Task) (*cluster.ForwardResult, error) {
	req := cluster.ForwardRequest{
		Experiment: t.Experiment,
		Seed:       t.Seed,
		Params:     paramMap(t.Params),
		Key:        t.Key,
	}
	if s.opts.StepSample > 0 && job.bus.HasSubscribers() {
		req.Origin = s.cluster.Self()
		req.Job = job.id
		req.TaskIndex = idx
		req.WantEvents = true
	}
	return s.cluster.Forward(ctx, t.Owner, req)
}

// remoteEmitter is the owner-side half of the event back-channel: it returns
// a non-blocking emit for progress events of one forwarded task, drained by
// a single sender goroutine that batches them onto the origin's EventPath.
// Overflowing the queue drops events (counted on the peer's stats), so a
// slow or dead origin can never slow the forwarded run. flush closes the
// queue and waits for the sender; call it before the handler returns, while
// ctx is still live.
func (s *Server) remoteEmitter(ctx context.Context, origin, jobID string, task int) (emit func(Event), flush func()) {
	ch := make(chan Event, 256)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range ch {
			batch := []Event{ev}
		drain:
			for len(batch) < 64 {
				select {
				case more, ok := <-ch:
					if !ok {
						break drain
					}
					batch = append(batch, more)
				default:
					break drain
				}
			}
			raw := make([]json.RawMessage, 0, len(batch))
			for _, b := range batch {
				if data, err := json.Marshal(b); err == nil {
					raw = append(raw, data)
				}
			}
			s.cluster.PostEvents(ctx, origin, cluster.EventBatch{Job: jobID, Events: raw})
		}
	}()
	emit = func(ev Event) {
		ev.Task = task
		select {
		case ch <- ev:
		default:
			s.cluster.NoteEventsDropped(origin, 1)
		}
	}
	flush = func() {
		close(ch)
		<-done
	}
	return emit, flush
}

// handleClusterRun is the owner side of a forward: POST /v1/cluster/run.
// The owner re-derives the run-store key from its own schema resolution and
// code version and refuses a mismatch with 400 — version skew between nodes
// must surface as an explicit error on the origin (which then degrades to
// local compute), never as two nodes writing different bytes under one key.
func (s *Server) handleClusterRun(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.writeError(w, http.StatusNotFound, CodeNotFound, "cluster mode is not enabled on this node")
		return
	}
	var req cluster.ForwardRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "bad forward body: %v", err)
		return
	}
	e, ok := harness.ByID(req.Experiment)
	if !ok {
		s.writeJSON(w, http.StatusBadRequest, UnknownExperimentEnvelope(req.Experiment))
		return
	}
	vals, err := e.Resolve(req.Params)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, ParamErrorEnvelope(err))
		return
	}
	key := runstore.Key(runstore.KeySpec{
		Experiment: req.Experiment,
		Seed:       req.Seed,
		Params:     vals.Canonical(),
		Version:    harness.CodeVersion,
	})
	if key != req.Key {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest,
			"key mismatch: caller sent %s, owner derives %s (code-version skew between nodes?)", req.Key, key)
		return
	}

	// The owner's store is authoritative for this key: serve a hit directly.
	if data, ok, err := s.opts.Store.GetBytes(key); err != nil {
		s.countStoreError()
	} else if ok {
		s.mu.Lock()
		s.stats.TasksCached++
		s.mu.Unlock()
		s.writeForwardResult(w, data, true, false)
		return
	}

	// Miss: run it here, with the same retry/backoff/degrade discipline as a
	// local task. The origin counted the forward; this node counts the run.
	// If the origin asked for progress events, they flow back best-effort:
	// an owner-side "started" plus sampled engine steps, all tagged with the
	// origin's task index and this node's name.
	emit := func(Event) {}
	cfg := harness.Config{Seed: req.Seed, Params: req.Params}
	if req.WantEvents && req.Origin != "" && req.Job != "" {
		var flush func()
		emit, flush = s.remoteEmitter(r.Context(), req.Origin, req.Job, req.TaskIndex)
		defer flush()
		if s.opts.StepSample > 0 {
			cfg.Observer = s.stepSampler(func(st engine.StepStats) {
				emit(Event{Type: EventStep, Machine: st.Machine, Superstep: st.Index, Cost: st.Cost, Node: s.cluster.Self()})
			})
		}
	}
	emit(Event{Type: EventStarted, Experiment: req.Experiment, Seed: req.Seed, Key: key, Node: s.cluster.Self()})
	ctx := r.Context()
	var lastErr error
	for attempt := 1; attempt <= 1+s.opts.Retries; attempt++ {
		if attempt > 1 {
			s.mu.Lock()
			s.stats.TaskRetries++
			s.mu.Unlock()
			sleepCtx(ctx, retry.BackoffDelay(s.opts.Backoff, s.opts.BackoffMax, key, attempt))
		}
		if ctx.Err() != nil {
			// The origin gave up (per-attempt deadline, job cancel); it will
			// degrade to local compute, so just abandon the response.
			s.writeError(w, http.StatusServiceUnavailable, CodeUnavailable, "forward abandoned: %s", contextReason(ctx))
			return
		}
		res, err := s.safeRun(ctx, req.Experiment, cfg)
		if err != nil {
			lastErr = err
			continue
		}
		data, degraded, err := s.storeResult(ctx, key, res)
		if err != nil {
			lastErr = err
			break
		}
		s.mu.Lock()
		s.stats.TasksRun++
		if degraded {
			s.stats.TasksDegraded++
		}
		s.mu.Unlock()
		s.writeForwardResult(w, data, false, degraded)
		return
	}
	s.writeError(w, http.StatusInternalServerError, CodeInternal, "forwarded task failed: %v", lastErr)
}

// writeForwardResult answers a forward with the canonical result bytes plus
// the CRC header the origin verifies — the same integrity discipline the run
// store applies on disk, which is what makes torn forwards detectable.
func (s *Server) writeForwardResult(w http.ResponseWriter, data []byte, cached, degraded bool) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(cluster.HeaderCRC, fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)))
	if cached {
		w.Header().Set(cluster.HeaderCached, "1")
	}
	if degraded {
		w.Header().Set(cluster.HeaderDegraded, "1")
	}
	if _, err := w.Write(data); err != nil {
		s.mu.Lock()
		s.stats.EncodeErrors++
		s.mu.Unlock()
	}
}

// handleClusterEvents is the origin side of the event back-channel: POST
// /v1/cluster/events. Each raw event republishes onto the named job's bus,
// where it gets an origin-side id like any local event. Unknown jobs (pruned,
// or never ours) answer 404 so the owner stops posting; a closed bus simply
// swallows the batch — the job already finished, the stream already ended.
func (s *Server) handleClusterEvents(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.writeError(w, http.StatusNotFound, CodeNotFound, "cluster mode is not enabled on this node")
		return
	}
	var batch cluster.EventBatch
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&batch); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "bad event batch: %v", err)
		return
	}
	job, ok := s.Job(batch.Job)
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeNotFound, "no job %q", batch.Job)
		return
	}
	accepted := 0
	for _, raw := range batch.Events {
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			continue
		}
		ev.ID = 0 // ids are assigned by this bus at publish
		if job.bus.publish(ev) != 0 {
			accepted++
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]int{"accepted": accepted})
}

// handleClusterRing exposes ring membership and per-peer forwarding health:
// GET /v1/cluster/ring.
func (s *Server) handleClusterRing(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.writeError(w, http.StatusNotFound, CodeNotFound, "cluster mode is not enabled on this node")
		return
	}
	s.writeJSON(w, http.StatusOK, s.cluster.Snapshot())
}
