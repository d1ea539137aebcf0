package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parbw/internal/engine"
	"parbw/internal/harness"
	"parbw/internal/result"
)

const stepGolden = "testdata/step_events_quick.txt"

// drained reports whether every subscriber of j's bus has taken everything
// it was offered.
func drained(j *Job) bool {
	j.bus.mu.Lock()
	defer j.bus.mu.Unlock()
	for sub := range j.bus.subs {
		if len(sub.pending) > 0 {
			return false
		}
	}
	return true
}

// TestStepEventGolden pins the step events a watcher sees for one BSP, one
// QSM and one PRAM experiment at fixed seeds: with StepSample 1 the stream
// carries every superstep of every machine the task's run constructs, in
// commit order. Step events coalesce in a subscriber's buffer by design, so
// the runner holds each step until the watcher has taken the previous one.
// UPDATE_STEP_GOLDEN=1 rewrites the golden file.
func TestStepEventGolden(t *testing.T) {
	const blockSeed = 1 << 40
	gate := make(chan struct{})
	var watched atomic.Pointer[Job]
	runner := func(id string, cfg harness.Config) (*result.Result, error) {
		if cfg.Seed == blockSeed {
			<-gate
			return DefaultRunner(id, cfg)
		}
		emit := cfg.Observer
		cfg.Observer = engine.ObserverFunc(func(st engine.StepStats) {
			deadline := time.Now().Add(10 * time.Second)
			for !drained(watched.Load()) {
				if time.Now().After(deadline) {
					panic("step golden: watcher stopped taking events")
				}
				time.Sleep(10 * time.Microsecond)
			}
			if emit != nil {
				emit.OnStep(st)
			}
		})
		return DefaultRunner(id, cfg)
	}
	s := newTestServer(t, Options{Runner: runner, Workers: 1, StepSample: 1, Heartbeat: -1, Retries: -1})

	// Jobs run one at a time: the blocker holds the executor until the
	// watcher is subscribed, so the observed job sees a subscriber from its
	// first task on.
	blocker, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Seeds: []uint64{blockSeed}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(RunRequest{
		Experiments: []string{"table1/broadcast", "table1/parity", "sep/leader"},
		Seeds:       []uint64{3},
		Quick:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	watched.Store(job)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// One golden line per run of consecutive supersteps of one machine:
	// "experiment machine first-superstep: cost cost ...".
	var lines []string
	exps := map[int]string{}
	prev := Event{Superstep: -1}
	done := make(chan struct{})
	go func() {
		defer close(done)
		job.WatchEvents(ctx, 0, func(ev Event) {
			switch ev.Type {
			case EventStarted:
				exps[ev.Task] = ev.Experiment
			case EventStep:
				if ev.Task != prev.Task || ev.Machine != prev.Machine || ev.Superstep != prev.Superstep+1 {
					lines = append(lines, fmt.Sprintf("%s %s %d:", exps[ev.Task], ev.Machine, ev.Superstep))
				}
				lines[len(lines)-1] += " " + strconv.FormatFloat(ev.Cost, 'g', -1, 64)
				prev = ev
			case EventGap:
				t.Errorf("gap event %+v", ev)
			}
		})
	}()
	for !job.Events().HasSubscribers() {
		if ctx.Err() != nil {
			t.Fatal("watcher never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if state := waitState(t, blocker); state != StatusDone {
		t.Fatalf("blocker job %s", state)
	}
	if state := waitState(t, job); state != StatusDone {
		t.Fatalf("observed job %s", state)
	}
	<-done
	if n := s.streamM.coalesced.Load(); n != 0 {
		t.Fatalf("%d step events coalesced; the golden needs every step", n)
	}

	got := strings.Join(lines, "\n") + "\n"
	if os.Getenv("UPDATE_STEP_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(stepGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stepGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(stepGolden)
	if err != nil {
		t.Fatalf("%v (UPDATE_STEP_GOLDEN=1 go test -run TestStepEventGolden ./internal/service to regenerate)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("step run %d:\n got %s\nwant %s", i, gl[i], wl[i])
			}
		}
		t.Fatalf("step stream has %d machine runs, want %d", len(gl), len(wl))
	}
}
