package service

import (
	"fmt"
	"sync"
	"testing"
)

func lifecycle(task int) Event { return Event{Type: EventStarted, Task: task} }

func collect(sub *subscriber) []Event {
	evs, _ := sub.take()
	out := make([]Event, len(evs))
	copy(out, evs) // take reuses buffers; keep a stable copy
	return out
}

func TestBusAssignsMonotonicIDs(t *testing.T) {
	b := newBus(8, 8, &busMetrics{})
	sub := b.subscribe(0)
	for i := 0; i < 5; i++ {
		b.publish(lifecycle(i))
	}
	evs := collect(sub)
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.ID != uint64(i+1) {
			t.Fatalf("event %d has id %d, want %d", i, ev.ID, i+1)
		}
	}
}

func TestBusResumeReplaysExactSuffix(t *testing.T) {
	b := newBus(16, 16, &busMetrics{})
	for i := 0; i < 10; i++ {
		b.publish(lifecycle(i))
	}
	sub := b.subscribe(6)
	evs := collect(sub)
	if len(evs) != 4 {
		t.Fatalf("resume from 6 replayed %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.ID != uint64(7+i) {
			t.Fatalf("replayed id %d at %d, want %d", ev.ID, i, 7+i)
		}
	}
}

func TestBusResumePastEvictionEmitsGap(t *testing.T) {
	b := newBus(4, 16, &busMetrics{})
	for i := 0; i < 10; i++ { // ring keeps ids 7..10; 1..6 evicted
		b.publish(lifecycle(i))
	}
	sub := b.subscribe(2)
	evs := collect(sub)
	if len(evs) != 5 {
		t.Fatalf("got %d events, want gap + 4 retained", len(evs))
	}
	// The gap marker leads so the partial replay is explicit and the
	// client's Last-Event-ID stays monotone.
	if gap := evs[0]; gap.Type != EventGap || gap.From != 3 || gap.To != 6 || gap.ID != 6 {
		t.Fatalf("gap marker = %+v, want from 3 to 6 with id 6", gap)
	}
	for i, ev := range evs[1:] {
		if ev.ID != uint64(7+i) {
			t.Fatalf("retained id %d at %d, want %d", ev.ID, i, 7+i)
		}
	}
}

func TestBusStepCoalescing(t *testing.T) {
	m := &busMetrics{}
	b := newBus(8, 8, m)
	sub := b.subscribe(0)
	for i := 0; i < 5; i++ {
		b.publish(Event{Type: EventStep, Task: 3, Superstep: i})
	}
	evs := collect(sub)
	if len(evs) != 1 {
		t.Fatalf("got %d step events, want 1 coalesced", len(evs))
	}
	if evs[0].Superstep != 4 {
		t.Fatalf("coalesced step kept superstep %d, want the newest (4)", evs[0].Superstep)
	}
	if m.coalesced.Load() != 4 {
		t.Fatalf("coalesced counter = %d, want 4", m.coalesced.Load())
	}
	// Steps for different tasks do not coalesce with each other.
	b.publish(Event{Type: EventStep, Task: 1})
	b.publish(Event{Type: EventStep, Task: 2})
	if evs := collect(sub); len(evs) != 2 {
		t.Fatalf("distinct-task steps coalesced: got %d, want 2", len(evs))
	}
}

func TestBusSlowSubscriberDropsWithGapMarker(t *testing.T) {
	m := &busMetrics{}
	b := newBus(64, 2, m) // tiny subscriber buffer
	sub := b.subscribe(0)
	for i := 0; i < 6; i++ {
		b.publish(lifecycle(i))
	}
	evs := collect(sub)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 2 buffered + gap", len(evs))
	}
	gap := evs[2]
	if gap.Type != EventGap || gap.From != 3 || gap.To != 6 {
		t.Fatalf("gap = %+v, want from 3 to 6", gap)
	}
	if m.dropped.Load() != 4 {
		t.Fatalf("dropped counter = %d, want 4", m.dropped.Load())
	}
	// After draining, delivery resumes cleanly.
	b.publish(lifecycle(9))
	evs = collect(sub)
	if len(evs) != 1 || evs[0].ID != 7 {
		t.Fatalf("post-drain delivery = %+v, want single event id 7", evs)
	}
}

func TestBusPublishNeverBlocksOnStalledSubscriber(t *testing.T) {
	b := newBus(4, 2, &busMetrics{})
	b.subscribe(0) // never reads
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10_000; i++ {
			b.publish(lifecycle(i))
		}
		close(done)
	}()
	<-done // the test itself hangs (and times out) if publish can block
}

func TestBusCloseEndsStreamsAfterDrain(t *testing.T) {
	b := newBus(8, 8, &busMetrics{})
	sub := b.subscribe(0)
	b.publish(lifecycle(0))
	b.close()
	// The tail batch arrives together with the closed flag: consumers process
	// the events, then end the stream — no extra wake is owed after close.
	evs, closed := sub.take()
	if len(evs) != 1 || !closed {
		t.Fatalf("first take = (%d events, closed=%v), want tail with closed", len(evs), closed)
	}
	if evs, closed := sub.take(); len(evs) != 0 || !closed {
		t.Fatalf("second take = (%d events, closed=%v), want closed drain", len(evs), closed)
	}
	if id := b.publish(lifecycle(1)); id != 0 {
		t.Fatalf("publish on closed bus assigned id %d, want 0", id)
	}
}

func TestBusSubscribeAfterCloseReplaysTail(t *testing.T) {
	b := newBus(8, 8, &busMetrics{})
	for i := 0; i < 3; i++ {
		b.publish(lifecycle(i))
	}
	b.close()
	sub := b.subscribe(1)
	evs, _ := sub.take()
	if len(evs) != 2 || evs[0].ID != 2 || evs[1].ID != 3 {
		t.Fatalf("post-close resume = %+v, want ids 2,3", evs)
	}
	if _, closed := sub.take(); !closed {
		t.Fatal("drained post-close subscriber should see closed")
	}
}

func TestBusConcurrentPublishersAndSubscribers(t *testing.T) {
	b := newBus(128, 256, &busMetrics{})
	const pubs, events = 4, 200
	var wg sync.WaitGroup
	seen := make([]map[uint64]bool, 3)
	for s := 0; s < 3; s++ {
		sub := b.subscribe(0)
		seen[s] = map[uint64]bool{}
		wg.Add(1)
		go func(sub *subscriber, got map[uint64]bool) {
			defer wg.Done()
			for {
				evs, closed := sub.take()
				for _, ev := range evs {
					if ev.Type == EventGap {
						// Ids inside a gap are accounted for: the
						// subscriber was told exactly what it lost.
						for id := ev.From; id <= ev.To; id++ {
							got[id] = true
						}
						continue
					}
					if got[ev.ID] {
						panic(fmt.Sprintf("duplicate event id %d", ev.ID))
					}
					got[ev.ID] = true
				}
				if closed {
					return
				}
				<-sub.notify
			}
		}(sub, seen[s])
	}
	var pw sync.WaitGroup
	for p := 0; p < pubs; p++ {
		pw.Add(1)
		go func() {
			defer pw.Done()
			for i := 0; i < events; i++ {
				b.publish(lifecycle(i))
			}
		}()
	}
	pw.Wait()
	b.close()
	wg.Wait()
	for s, got := range seen {
		if len(got) != pubs*events {
			t.Fatalf("subscriber %d saw %d distinct events, want %d", s, len(got), pubs*events)
		}
	}
}

// The replay ring grows by append until it holds ringCap events, then turns
// circular. At every publish along growth → full → wrap, a resume from every
// lastID must replay exactly what a reference model keeping the last ringCap
// lifecycle events would: a gap marker for the evicted part of the suffix,
// then the retained events past lastID, in order. Step events are
// interleaved and never enter the ring.
func TestBusRingGrowthWrapMatchesReference(t *testing.T) {
	const ringCap, published = 5, 24
	b := newBus(ringCap, 64, &busMetrics{})
	var lifecycleIDs []uint64 // every lifecycle id published, oldest first
	for n := 1; n <= published; n++ {
		ev := lifecycle(n)
		if n%3 == 0 {
			ev = Event{Type: EventStep, Task: n}
		}
		id := b.publish(ev)
		if ev.Type != EventStep {
			lifecycleIDs = append(lifecycleIDs, id)
		}
		retained := lifecycleIDs[max(len(lifecycleIDs)-ringCap, 0):]
		var evictedThrough uint64
		if k := len(lifecycleIDs) - len(retained); k > 0 {
			evictedThrough = lifecycleIDs[k-1]
		}
		if c := cap(b.ring); c > ringCap {
			t.Fatalf("after %d publishes ring capacity %d exceeds %d", n, c, ringCap)
		}
		for lastID := uint64(0); lastID <= id; lastID++ {
			var want []Event
			if lastID < evictedThrough {
				want = append(want, Event{ID: evictedThrough, Type: EventGap, Task: -1, From: lastID + 1, To: evictedThrough})
			}
			for _, rid := range retained {
				if rid > lastID {
					want = append(want, Event{ID: rid, Type: EventStarted})
				}
			}
			sub := b.subscribe(lastID)
			got := collect(sub)
			b.unsubscribe(sub)
			if len(got) != len(want) {
				t.Fatalf("after %d publishes, resume from %d replayed %d events, want %d: %+v", n, lastID, len(got), len(want), got)
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.ID != w.ID || g.Type != w.Type || g.From != w.From || g.To != w.To {
					t.Fatalf("after %d publishes, resume from %d: event %d = %+v, want %+v", n, lastID, i, g, w)
				}
			}
		}
	}
}

// A job's replay ring costs what the job publishes: a cached 8-cell sweep
// publishes 3·8+3 lifecycle events, and its ring holds no more slots than
// that — nor do the rings of all the finished jobs the server retains.
func TestBusRingSizedByPublishedEvents(t *testing.T) {
	const cells, jobs = 8, 600
	const perJob = 3*cells + 3
	s := newTestServer(t, Options{})
	req := RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true}
	for seed := uint64(1); seed <= cells; seed++ {
		req.Seeds = append(req.Seeds, seed)
	}
	for i := 0; i < jobs; i++ {
		job, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		if i == 1 {
			job.bus.mu.Lock()
			c := cap(job.bus.ring)
			job.bus.mu.Unlock()
			if c > perJob {
				t.Fatalf("cached %d-cell job keeps a %d-slot replay ring, want <= %d", cells, c, perJob)
			}
		}
	}
	s.mu.Lock()
	retained, slots := len(s.jobs), 0
	for _, job := range s.jobs {
		job.bus.mu.Lock()
		slots += cap(job.bus.ring)
		job.bus.mu.Unlock()
	}
	s.mu.Unlock()
	if retained != maxRetainedJobs {
		t.Fatalf("server retains %d jobs, want %d", retained, maxRetainedJobs)
	}
	if slots > maxRetainedJobs*perJob {
		t.Fatalf("%d retained jobs keep %d replay slots, want <= %d", retained, slots, maxRetainedJobs*perJob)
	}
}
