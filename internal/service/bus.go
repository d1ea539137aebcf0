package service

// The per-job event bus: the streaming layer between the sweep executor and
// any number of SSE subscribers watching GET /v1/runs/{id}/events.
//
// Contract, in order of importance:
//
//  1. Publishing never blocks. The executor appends under a mutex and pokes
//     a non-blocking notify channel; a subscriber that stopped reading can
//     only fill its own bounded buffer, never stall runTask.
//  2. Every event gets a monotonically increasing id, assigned at publish.
//     Lifecycle events (admitted/started/cached/…/failed) additionally land
//     in a bounded replay ring so a client reconnecting with Last-Event-ID
//     receives exactly the missed suffix still retained — and an explicit
//     gap marker for anything evicted before it reconnected.
//  3. Progress events ("step" samples) are lossy by contract: they coalesce
//     against the newest pending step of the same task, are dropped first
//     under pressure, and are never replayed on resume.
//  4. A subscriber whose buffer overflows loses lifecycle events too —
//     pathologically slow clients get a "gap" event naming the dropped id
//     range instead of back-pressure, and can re-fetch job state to catch
//     up.
//
// The bus closes when its job reaches a terminal state; subscribers drain
// whatever is pending and their streams end.

import (
	"sync"
	"sync/atomic"

	"parbw/internal/result"
)

// Event types published on a job's bus. Exactly one terminal event is
// published per task — "cached", "completed", "failed", or "cancelled" —
// which is what lets a stream consumer count cells without reconciling
// against the job view.
const (
	EventAdmitted  = "admitted"  // task admitted at submission (one per cell)
	EventStarted   = "started"   // task began executing (per attempt node)
	EventCached    = "cached"    // terminal: served from the run store
	EventForwarded = "forwarded" // task shipped to its owning peer
	EventDegraded  = "degraded"  // forward abandoned; falling back to local compute
	EventCompleted = "completed" // terminal: computed (flags carry cached/forwarded/degraded)
	EventFailed    = "failed"    // terminal: every attempt failed
	EventCancelled = "cancelled" // terminal: job timeout or cancellation
	EventStep      = "step"      // sampled engine StepStats progress (lossy)
	EventGap       = "gap"       // subscriber-local marker: ids From..To were dropped
	EventJob       = "job"       // job-level state change, with counts by task state
)

// TerminalEvent reports whether t is one of the per-task terminal event
// types (exactly one is published per task).
func TerminalEvent(t string) bool {
	switch t {
	case EventCached, EventCompleted, EventFailed, EventCancelled:
		return true
	}
	return false
}

// Event is one entry of a job's event stream. Task is the task index within
// the job (-1 for job-level events). Events deliberately carry no wall-clock
// fields, so a fixed-seed run streams byte-identical event payloads.
type Event struct {
	ID   uint64 `json:"id"`
	Type string `json:"type"`
	Task int    `json:"task"`

	Experiment string         `json:"experiment,omitempty"`
	Seed       uint64         `json:"seed,omitempty"`
	Params     []result.Param `json:"params,omitempty"`
	Key        string         `json:"key,omitempty"`
	Node       string         `json:"node,omitempty"` // cluster node that produced the event

	Cached    bool   `json:"cached,omitempty"`
	Forwarded bool   `json:"forwarded,omitempty"`
	Degraded  bool   `json:"degraded,omitempty"`
	Error     string `json:"error,omitempty"`

	State  string         `json:"state,omitempty"`  // job events: the job state entered
	Counts map[string]int `json:"counts,omitempty"` // job events: tasks by state

	Machine   string  `json:"machine,omitempty"`   // step events: machine family
	Superstep int     `json:"superstep,omitempty"` // step events: 0-based index
	Cost      float64 `json:"cost,omitempty"`      // step events: simulated time of the step

	From uint64 `json:"from,omitempty"` // gap events: first dropped id
	To   uint64 `json:"to,omitempty"`   // gap events: last dropped id
}

// busMetrics are the server-wide streaming counters every bus feeds.
type busMetrics struct {
	published atomic.Uint64 // events published across all jobs
	dropped   atomic.Uint64 // events dropped on full subscriber buffers
	coalesced atomic.Uint64 // step events merged into a pending one
}

// subscriber is one attached event consumer. All fields are guarded by the
// owning bus's mutex except the notify channel.
type subscriber struct {
	bus     *bus
	notify  chan struct{} // cap 1; non-blocking poke on new pending work
	max     int
	pending []Event
	spare   []Event // take() swaps buffers to avoid re-allocating
	// Drop accounting: ids dropFrom..dropTo were discarded because the
	// buffer was full; a gap event is synthesized at the next take.
	dropFrom, dropTo uint64
}

// bus is one job's event fan-out. The zero value is not usable; newBus.
type bus struct {
	metrics *busMetrics
	ringCap int
	subMax  int

	nSubs atomic.Int32 // fast HasSubscribers gate for publishers

	mu     sync.Mutex
	nextID uint64
	// Replay ring of lifecycle events: the most recent ringCap non-step
	// events. It grows on demand, so a job's ring costs what the job
	// publishes, and turns circular only once it holds ringCap events —
	// until then ringStart stays 0. evictedThrough is the highest id ever
	// pushed out (step events never enter the ring and don't count as
	// evicted; resume never replays steps).
	ring           []Event
	ringStart      int
	evictedThrough uint64
	subs           map[*subscriber]struct{}
	closed         bool
}

func newBus(ringCap, subMax int, m *busMetrics) *bus {
	return &bus{
		metrics: m,
		ringCap: ringCap,
		subMax:  subMax,
		subs:    map[*subscriber]struct{}{},
	}
}

// reserve preallocates the replay ring for n lifecycle events, capped at
// ringCap — the events its job normally publishes. Called before the first
// publish; a job that publishes more grows the ring on demand.
func (b *bus) reserve(n int) { b.ring = make([]Event, 0, min(n, b.ringCap)) }

// HasSubscribers reports whether anyone is listening — the cheap gate the
// executor checks before doing per-event work (engine tagging, remote event
// emission).
func (b *bus) HasSubscribers() bool { return b != nil && b.nSubs.Load() > 0 }

// publish assigns the next id and fans ev out: lifecycle events into the
// replay ring and every subscriber's buffer, step events into buffers only.
// It never blocks and is safe from any goroutine. Returns the assigned id
// (0 if the bus is closed). A nil bus (a Job built outside Submit, as some
// tests do) swallows everything.
func (b *bus) publish(ev Event) uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0
	}
	b.nextID++
	ev.ID = b.nextID
	b.metrics.published.Add(1)
	if ev.Type != EventStep {
		if len(b.ring) < b.ringCap {
			if len(b.ring) == cap(b.ring) {
				// Double, clamped at ringCap: append alone would overshoot it.
				b.ring = append(make([]Event, 0, min(2*len(b.ring)+1, b.ringCap)), b.ring...)
			}
			b.ring = append(b.ring, ev)
		} else {
			b.evictedThrough = b.ring[b.ringStart].ID
			b.ring[b.ringStart] = ev
			b.ringStart = (b.ringStart + 1) % len(b.ring)
		}
	}
	var woken []*subscriber
	for sub := range b.subs {
		if sub.offer(ev) {
			woken = append(woken, sub)
		}
	}
	b.mu.Unlock()
	for _, sub := range woken {
		sub.wake()
	}
	return ev.ID
}

// offer appends ev to the subscriber's pending buffer, coalescing step
// events and recording drops when full. Called with bus.mu held; reports
// whether the subscriber should be woken.
func (s *subscriber) offer(ev Event) bool {
	if ev.Type == EventStep {
		// Coalesce against the newest pending step of the same task: a
		// subscriber draining slower than the engine commits sees the
		// latest progress, not a backlog of stale samples.
		if n := len(s.pending); n > 0 {
			if last := &s.pending[n-1]; last.Type == EventStep && last.Task == ev.Task && last.Node == ev.Node {
				*last = ev
				s.bus.metrics.coalesced.Add(1)
				return true
			}
		}
		if len(s.pending) >= s.max {
			// Steps are lossy by contract: drop without a gap marker.
			s.bus.metrics.dropped.Add(1)
			return false
		}
		s.pending = append(s.pending, ev)
		return true
	}
	if len(s.pending) >= s.max {
		// A lifecycle event a full subscriber will never see: record the
		// dropped range so the next take() emits a gap marker instead of
		// silently losing it.
		if s.dropFrom == 0 {
			s.dropFrom = ev.ID
		}
		s.dropTo = ev.ID
		s.bus.metrics.dropped.Add(1)
		return true // wake it: draining is the only way out
	}
	s.pending = append(s.pending, ev)
	return true
}

// wake pokes the subscriber's notify channel without blocking.
func (s *subscriber) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// take removes and returns everything pending, appending a synthesized gap
// event if lifecycle events were dropped since the last take. closed
// reports that the bus is closed AND nothing is left — the stream is over.
func (s *subscriber) take() (evs []Event, closed bool) {
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	evs, s.pending = s.pending, s.spare[:0]
	s.spare = evs[:0] // the buffers swap roles next take
	if s.dropFrom != 0 {
		evs = append(evs, Event{ID: s.dropTo, Type: EventGap, Task: -1, From: s.dropFrom, To: s.dropTo})
		s.dropFrom, s.dropTo = 0, 0
	}
	// Once the bus is closed nothing can refill pending, so this batch is the
	// stream's tail: report closed alongside it. Reporting closed only on an
	// empty take would lose the close wake when it coalesced (notify holds one
	// token) with a publish the consumer was still writing out — the consumer
	// would drain, then block on notify forever.
	return evs, b.closed
}

// subscribe attaches a new consumer. Events with id > lastID still in the
// replay ring are preloaded into its buffer (with a leading gap event when
// the ring has already evicted part of the requested suffix). Subscribing
// to a closed bus is how a client replays a finished job's tail: the
// preloaded events drain and the stream ends.
func (b *bus) subscribe(lastID uint64) *subscriber {
	sub := &subscriber{bus: b, notify: make(chan struct{}, 1), max: b.subMax}
	b.mu.Lock()
	if lastID < b.evictedThrough {
		// The requested suffix starts before the ring's oldest retained
		// event: lead with a gap marker so the replay that follows is
		// explicitly partial. Its id is the gap's end, keeping the client's
		// Last-Event-ID monotone.
		sub.pending = append(sub.pending, Event{ID: b.evictedThrough, Type: EventGap, Task: -1, From: lastID + 1, To: b.evictedThrough})
	}
	for i := range b.ring {
		ev := b.ring[(b.ringStart+i)%len(b.ring)]
		if ev.ID > lastID {
			sub.offer(ev)
		}
	}
	b.subs[sub] = struct{}{}
	b.nSubs.Add(1)
	b.mu.Unlock()
	sub.wake() // there may be preloaded events (or an immediate close) to see
	return sub
}

// unsubscribe detaches sub; its buffered events are discarded.
func (b *bus) unsubscribe(sub *subscriber) {
	b.mu.Lock()
	if _, ok := b.subs[sub]; ok {
		delete(b.subs, sub)
		b.nSubs.Add(-1)
	}
	b.mu.Unlock()
}

// close seals the bus — no more publishes — and wakes every subscriber so
// each drains its tail and ends its stream. A nil bus is a no-op.
func (b *bus) close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := make([]*subscriber, 0, len(b.subs))
	for sub := range b.subs {
		subs = append(subs, sub)
	}
	b.mu.Unlock()
	for _, sub := range subs {
		sub.wake()
	}
}
