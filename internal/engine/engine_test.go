package engine

import (
	"sync"
	"testing"
)

// step commits one merged superstep with the given cost and traffic.
func step(c *Core, cost float64, n, maxSlot, overload int) {
	c.Commit(StepStats{N: n, MaxSlot: maxSlot, Overload: overload, Cost: cost})
}

// Commit advances the clock by the step's cost, and the observer given at
// construction is the step record: it sees each committed step's normalized
// view in order.
func TestCoreClockAndTrace(t *testing.T) {
	var trace []StepStats
	c := NewCore("test", ObserverFunc(func(st StepStats) { trace = append(trace, st) }))
	step(c, 3, 1, 1, 0)
	step(c, 5, 2, 1, 0)
	if c.Time() != 8 {
		t.Fatalf("Time = %v, want 8", c.Time())
	}
	if c.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2", c.Steps())
	}
	if len(trace) != 2 || trace[0].Cost != 3 || trace[1].Cost != 5 || trace[0].Index != 0 || trace[1].Index != 1 {
		t.Fatalf("observed trace = %+v", trace)
	}
}

func TestObserverSeesCommittedSteps(t *testing.T) {
	var got []StepStats
	c := NewCore("obs", ObserverFunc(func(st StepStats) { got = append(got, st) }))
	step(c, 2, 5, 3, 1)
	step(c, 4, 6, 2, 0)
	if len(got) != 2 {
		t.Fatalf("observer saw %d steps", len(got))
	}
	for i, st := range got {
		if st.Machine != "obs" || st.Index != i {
			t.Fatalf("step %d: machine %q index %d", i, st.Machine, st.Index)
		}
	}
	if got[0].Cost != 2 || got[0].N != 5 || got[0].MaxSlot != 3 || got[0].Overload != 1 {
		t.Fatalf("step 0 fields: %+v", got[0])
	}
}

// A Core constructed with a nil observer commits its steps unobserved.
func TestAttachNilObserverIgnored(t *testing.T) {
	c := NewCore("test", nil)
	step(c, 1, 0, 0, 0) // must not panic
	if c.Time() != 1 || c.Steps() != 1 {
		t.Fatalf("Time = %v, Steps = %d, want 1 and 1", c.Time(), c.Steps())
	}
}

// Observers are per machine: concurrent drivers each see exactly their own
// machine's steps, in commit order, and a machine constructed with a nil
// observer commits its steps and is invisible to everyone.
func TestObserversScopedPerMachine(t *testing.T) {
	drive := func(label string, steps int, wg *sync.WaitGroup, got *[]StepStats) {
		defer wg.Done()
		var obs Observer
		if got != nil {
			obs = ObserverFunc(func(st StepStats) { *got = append(*got, st) })
		}
		c := NewCore(label, obs)
		for i := 0; i < steps; i++ {
			step(c, float64(i), 1, 1, 0)
		}
		if c.Steps() != steps {
			t.Errorf("machine %s committed %d steps, want %d", label, c.Steps(), steps)
		}
	}
	var a, b []StepStats
	var wg sync.WaitGroup
	wg.Add(3)
	go drive("a", 3, &wg, &a)
	go drive("b", 5, &wg, &b)
	go drive("c", 7, &wg, nil)
	wg.Wait()
	for _, tc := range []struct {
		label string
		got   []StepStats
		want  int
	}{{"a", a, 3}, {"b", b, 5}} {
		if len(tc.got) != tc.want {
			t.Fatalf("machine %s: observer saw %d steps, want %d", tc.label, len(tc.got), tc.want)
		}
		for i, st := range tc.got {
			if st.Machine != tc.label || st.Index != i || st.Cost != float64(i) {
				t.Fatalf("machine %s step %d: got %+v", tc.label, i, st)
			}
		}
	}
}

// Commit allocates nothing per step, observed or not.
func TestStepIsZeroAllocs(t *testing.T) {
	c := NewCore("test", nil)
	if allocs := testing.AllocsPerRun(100, func() { step(c, 1, 0, 0, 0) }); allocs != 0 {
		t.Fatalf("unobserved step costs %v allocs, want 0", allocs)
	}
	n := 0
	c = NewCore("test", ObserverFunc(func(StepStats) { n++ }))
	if allocs := testing.AllocsPerRun(100, func() { step(c, 1, 0, 0, 0) }); allocs != 0 {
		t.Fatalf("observed step costs %v allocs, want 0", allocs)
	}
}

func TestGlobalCountersAdvance(t *testing.T) {
	before := GlobalCounters()
	c := NewCore("test", nil)
	step(c, 1, 10, 3, 2)
	step(c, 1, 5, 1, 0)
	after := GlobalCounters()
	if d := after.Supersteps - before.Supersteps; d != 2 {
		t.Fatalf("supersteps advanced by %d, want 2", d)
	}
	if d := after.Messages - before.Messages; d != 15 {
		t.Fatalf("messages advanced by %d, want 15", d)
	}
	if d := after.Overloads - before.Overloads; d != 2 {
		t.Fatalf("overloads advanced by %d, want 2", d)
	}
	if after.MaxSlotLoad < 3 {
		t.Fatalf("max slot load = %d, want >= 3", after.MaxSlotLoad)
	}
}
