package engine

import (
	"strings"
	"sync"
	"testing"
)

// step drives one trivial superstep on c whose merge reports the given cost
// and traffic, and returns the native Stats Step committed.
func step(c *Core[int], cost float64, n, maxSlot, overload int) int {
	return c.Step(func(lo, hi int) {}, func() (int, StepStats) {
		return c.Steps() + 1, StepStats{N: n, MaxSlot: maxSlot, Overload: overload, Cost: cost}
	})
}

// Step returns the merge's native Stats, and the attached observer is the
// step record: it sees each committed step's normalized view in order.
func TestCoreClockAndTrace(t *testing.T) {
	c := NewCore[int]("test", 4, 1)
	if c.P() != 4 || c.Label() != "test" {
		t.Fatalf("P/Label = %d/%q", c.P(), c.Label())
	}
	var trace []StepStats
	c.Attach(ObserverFunc(func(st StepStats) { trace = append(trace, st) }))
	if got := step(c, 3, 1, 1, 0); got != 1 {
		t.Fatalf("first Step returned %d, want 1", got)
	}
	if got := step(c, 5, 2, 1, 0); got != 2 {
		t.Fatalf("second Step returned %d, want 2", got)
	}
	if c.Time() != 8 {
		t.Fatalf("Time = %v, want 8", c.Time())
	}
	if c.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2", c.Steps())
	}
	if len(trace) != 2 || trace[0].Cost != 3 || trace[1].Cost != 5 || trace[0].Index != 0 || trace[1].Index != 1 {
		t.Fatalf("observed trace = %+v", trace)
	}
	c.ChargeTime(10)
	if c.Time() != 18 {
		t.Fatalf("Time after ChargeTime = %v", c.Time())
	}
	c.ResetClock()
	if c.Time() != 0 || c.Steps() != 0 {
		t.Fatal("ResetClock did not clear state")
	}
	step(c, 1, 0, 0, 0)
	if last := trace[len(trace)-1]; len(trace) != 3 || last.Index != 0 {
		t.Fatalf("after ResetClock the next step is %+v of %d", last, len(trace))
	}
}

func TestCoreBodyRunsEveryProcessor(t *testing.T) {
	const p = 100
	c := NewCore[int]("test", p, 4)
	hits := make([]int, p)
	var mu sync.Mutex
	c.Step(func(lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	}, func() (int, StepStats) { return 0, StepStats{} })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("processor %d ran %d times", i, h)
		}
	}
}

func TestHistRecycled(t *testing.T) {
	c := NewCore[int]("test", 2, 1)
	h1 := c.Hist(8)
	if len(h1) != 8 {
		t.Fatalf("len = %d", len(h1))
	}
	for i := range h1 {
		h1[i] = 7
	}
	h2 := c.Hist(4)
	if len(h2) != 4 {
		t.Fatalf("len = %d", len(h2))
	}
	for i, v := range h2 {
		if v != 0 {
			t.Fatalf("hist[%d] = %d, want zeroed", i, v)
		}
	}
	if &h1[0] != &h2[0] {
		t.Fatal("histogram buffer not recycled")
	}
}

func TestLedgerRecycled(t *testing.T) {
	c := NewCore[int]("test", 5, 1)
	l1 := c.Ledger()
	if len(l1) != 5 {
		t.Fatalf("len = %d", len(l1))
	}
	l1[3] = 9
	l2 := c.Ledger()
	if l2[3] != 0 {
		t.Fatal("ledger not zeroed")
	}
	if &l1[0] != &l2[0] {
		t.Fatal("ledger buffer not recycled")
	}
}

func TestObserverSeesCommittedSteps(t *testing.T) {
	c := NewCore[int]("obs", 3, 1)
	var got []StepStats
	c.Attach(ObserverFunc(func(st StepStats) { got = append(got, st) }))
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

func TestAttachNilObserverIgnored(t *testing.T) {
	c := NewCore[int]("test", 1, 1)
	c.Attach(nil)
	step(c, 1, 0, 0, 0) // must not panic
}

// A machine's observers run in attachment order on every committed step and
// survive ResetClock, like the machine's other configuration.
func TestAttachedObserversRunInOrder(t *testing.T) {
	c := NewCore[int]("test", 1, 1)
	var got []string
	c.Attach(ObserverFunc(func(StepStats) { got = append(got, "a") }))
	c.Attach(ObserverFunc(func(StepStats) { got = append(got, "b") }))
	step(c, 1, 0, 0, 0)
	c.ResetClock()
	step(c, 1, 0, 0, 0)
	if want := "abab"; strings.Join(got, "") != want {
		t.Fatalf("observer calls = %v, want %s", got, want)
	}
}

// Observers are per machine: concurrent drivers each see exactly their own
// machine's steps, in commit order, and a machine without observers is
// invisible to everyone.
func TestObserversScopedPerMachine(t *testing.T) {
	drive := func(label string, steps int, wg *sync.WaitGroup, got *[]StepStats) {
		defer wg.Done()
		c := NewCore[int](label, 2, 1)
		if got != nil {
			c.Attach(ObserverFunc(func(st StepStats) { *got = append(*got, st) }))
		}
		for i := 0; i < steps; i++ {
			step(c, float64(i), 1, 1, 0)
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

// The commit path allocates nothing per step, observed or not.
func TestStepIsZeroAllocs(t *testing.T) {
	c := NewCore[int]("test", 2, 1)
	step(c, 1, 0, 0, 0) // warm scratch
	if allocs := testing.AllocsPerRun(100, func() { step(c, 1, 0, 0, 0) }); allocs != 0 {
		t.Fatalf("unobserved step costs %v allocs, want 0", allocs)
	}
	n := 0
	c.Attach(ObserverFunc(func(StepStats) { n++ }))
	if allocs := testing.AllocsPerRun(100, func() { step(c, 1, 0, 0, 0) }); allocs != 0 {
		t.Fatalf("observed step costs %v allocs, want 0", allocs)
	}
}

func TestGlobalCountersAdvance(t *testing.T) {
	before := GlobalCounters()
	c := NewCore[int]("test", 2, 1)
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

type span struct{ slot, width int }

func TestCheckScheduleValid(t *testing.T) {
	spans := []span{{4, 2}, {0, 1}, {1, 3}, {6, 1}}
	CheckSchedule(spans,
		func(s span) int { return s.slot },
		func(s span) int { return s.width },
		func(slot int) { t.Fatalf("valid schedule rejected at slot %d", slot) })
	// Sorted in place by slot.
	for i := 1; i < len(spans); i++ {
		if spans[i].slot < spans[i-1].slot {
			t.Fatalf("not sorted: %v", spans)
		}
	}
}

func TestCheckScheduleOverlap(t *testing.T) {
	cases := [][]span{
		{{0, 2}, {1, 1}},         // interval overlap
		{{3, 1}, {3, 1}},         // duplicate slot
		{{0, 1}, {5, 3}, {6, 1}}, // overlap after sorting
	}
	for i, spans := range cases {
		fired := false
		func() {
			defer func() { recover() }()
			CheckSchedule(spans,
				func(s span) int { return s.slot },
				func(s span) int { return s.width },
				func(slot int) { fired = true; panic("overlap") })
		}()
		if !fired {
			t.Fatalf("case %d: overlap not detected", i)
		}
	}
}

func TestCheckScheduleLarge(t *testing.T) {
	// Above the insertion-sort cutoff: descending slots, still valid.
	n := 100
	spans := make([]span, n)
	for i := range spans {
		spans[i] = span{slot: n - 1 - i, width: 1}
	}
	CheckSchedule(spans,
		func(s span) int { return s.slot },
		func(s span) int { return s.width },
		func(slot int) { t.Fatalf("valid large schedule rejected at %d", slot) })
	if spans[0].slot != 0 || spans[n-1].slot != n-1 {
		t.Fatal("large schedule not sorted")
	}
}
