package bsp

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"parbw/internal/engine"
	"parbw/internal/model"
)

func newBSPg(p, g, l int) *Machine {
	return New(Config{P: p, Cost: model.BSPg(g, l), Seed: 1})
}

func newBSPmLin(p, m, l int) *Machine {
	return New(Config{P: p, Cost: model.BSPmLinear(m, l), Seed: 1})
}

func TestMessageDelivery(t *testing.T) {
	m := newBSPg(4, 1, 1)
	m.Superstep(func(c *Ctx) {
		if c.ID() == 0 {
			c.Send(3, 7, 42)
		}
	})
	got := false
	m.Superstep(func(c *Ctx) {
		if c.ID() == 3 {
			msgs := c.Recv()
			if len(msgs) == 1 && msgs[0].A == 42 && msgs[0].Tag == 7 && msgs[0].Src == 0 {
				got = true
			}
		} else if len(c.Recv()) != 0 {
			t.Errorf("proc %d received unexpected messages", c.ID())
		}
	})
	if !got {
		t.Fatal("message not delivered to proc 3")
	}
}

func TestInboxClearedAfterSuperstep(t *testing.T) {
	m := newBSPg(2, 1, 1)
	m.Superstep(func(c *Ctx) {
		if c.ID() == 0 {
			c.Send(1, 0, 1)
		}
	})
	m.Superstep(func(c *Ctx) {}) // does not read; inbox replaced anyway
	m.Superstep(func(c *Ctx) {
		if c.ID() == 1 && len(c.Recv()) != 0 {
			t.Error("stale message survived two supersteps")
		}
	})
}

func TestBSPgCost(t *testing.T) {
	m := newBSPg(4, 3, 2)
	st := m.Superstep(func(c *Ctx) {
		c.Charge(1)
		if c.ID() == 0 {
			for i := 1; i < 4; i++ {
				c.Send(i, 0, int64(i))
			}
		}
	})
	// h = max(send=3, recv=1) = 3; cost = max(w=1, g*h=9, L=2) = 9.
	if st.H != 3 || st.Cost != 9 {
		t.Fatalf("stats = %+v, want H=3 Cost=9", st)
	}
	if m.Time() != 9 {
		t.Fatalf("Time = %v, want 9", m.Time())
	}
}

func TestBSPgReceiveSideH(t *testing.T) {
	m := newBSPg(4, 2, 1)
	st := m.Superstep(func(c *Ctx) {
		if c.ID() != 3 {
			c.Send(3, 0, 1)
		}
	})
	// proc 3 receives 3 messages: h = 3, cost = 6.
	if st.HRecv != 3 || st.Cost != 6 {
		t.Fatalf("stats = %+v, want HRecv=3 Cost=6", st)
	}
}

func TestBSPmScheduledCost(t *testing.T) {
	m := newBSPmLin(8, 2, 1)
	// Each of 8 processors sends one message in slot id/2: exactly m=2 per
	// slot over 4 slots -> c_m = 4, h = max(1, recv) and every message goes
	// to processor (id+1)%8 so recv = 1. Cost = max(0,1,4,1) = 4.
	st := m.Superstep(func(c *Ctx) {
		c.SendAt(c.ID()/2, (c.ID()+1)%8, Msg{A: 1})
	})
	if st.CM != 4 || st.Cost != 4 || st.MaxSlot != 2 || st.Overload != 0 {
		t.Fatalf("stats = %+v, want CM=4 Cost=4 MaxSlot=2", st)
	}
}

func TestBSPmOverloadLinear(t *testing.T) {
	m := newBSPmLin(8, 2, 1)
	// All 8 in slot 0: c_m = 8/2 = 4 under the linear penalty.
	st := m.Superstep(func(c *Ctx) {
		c.SendAt(0, (c.ID()+1)%8, Msg{A: 1})
	})
	if st.CM != 4 || st.Overload != 1 || st.MaxSlot != 8 {
		t.Fatalf("stats = %+v, want CM=4 Overload=1 MaxSlot=8", st)
	}
}

func TestBSPmOverloadExponential(t *testing.T) {
	m := New(Config{P: 8, Cost: model.BSPm(2, 1), Seed: 1})
	st := m.Superstep(func(c *Ctx) {
		c.SendAt(0, (c.ID()+1)%8, Msg{A: 1})
	})
	want := model.ExpPenalty(8, 2)
	if st.CM != want {
		t.Fatalf("CM = %v, want %v", st.CM, want)
	}
}

func TestOneFlitPerStepEnforced(t *testing.T) {
	m := newBSPmLin(2, 1, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double injection did not panic")
		}
		if !strings.Contains(r.(string), "two flits") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	m.Superstep(func(c *Ctx) {
		if c.ID() == 0 {
			c.SendAt(5, 1, Msg{A: 1})
			c.SendAt(5, 1, Msg{A: 2})
		}
	})
}

func TestLongMessageOccupiesConsecutiveSlots(t *testing.T) {
	m := newBSPmLin(2, 1, 1)
	st := m.Superstep(func(c *Ctx) {
		if c.ID() == 0 {
			c.SendAt(2, 1, Msg{Len: 3, A: 9})
		}
	})
	// Flits occupy slots 2,3,4: steps spanned = 5, c_m = 3 (three busy steps).
	if st.Steps != 5 || st.CM != 3 || st.N != 3 || st.H != 3 {
		t.Fatalf("stats = %+v, want Steps=5 CM=3 N=3 H=3", st)
	}
}

// Sent in slot order, the second message still starts inside the first's
// flits: the run is marked unordered and fails the merge's check.
func TestLongMessageOverlapPanics(t *testing.T) {
	m := newBSPmLin(2, 4, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("overlapping long message did not panic")
		}
		if want := "bsp: proc 0 injects two flits in step 2"; !strings.HasPrefix(r.(string), want) {
			t.Fatalf("panic %q, want prefix %q", r, want)
		}
	}()
	m.Superstep(func(c *Ctx) {
		if c.ID() == 0 {
			c.SendAt(0, 1, Msg{Len: 3})
			c.SendAt(2, 1, Msg{Len: 1})
		}
	})
}

// A valid schedule sent out of slot order is sorted by the merge: it
// delivers in slot order, and its Stats and observed step equal those of
// the same schedule sent in order.
func TestOutOfOrderRunMatchesInOrder(t *testing.T) {
	run := func(slots []int) (Stats, engine.StepStats, []Msg) {
		var view engine.StepStats
		m := New(Config{P: 4, Cost: model.BSPmLinear(2, 1), Seed: 1,
			Observer: engine.ObserverFunc(func(st engine.StepStats) {
				st.Hist = slices.Clone(st.Hist)
				view = st
			})})
		st := m.Superstep(func(c *Ctx) {
			switch c.ID() {
			case 0:
				for _, s := range slots {
					c.SendAt(s, 3, Msg{Len: 2, A: int64(s)})
				}
			case 1:
				c.Send(3, 0, 100)
			}
		})
		return st, view, slices.Clone(m.Inbox(3))
	}
	st, view, in := run([]int{5, 0, 2})
	wantSt, wantView, wantIn := run([]int{0, 2, 5})
	if st != wantSt {
		t.Fatalf("out-of-order Stats %+v, in-order %+v", st, wantSt)
	}
	if !reflect.DeepEqual(view, wantView) {
		t.Fatalf("out-of-order step %+v, in-order %+v", view, wantView)
	}
	if got := []int64{in[0].A, in[1].A, in[2].A, in[3].A}; !slices.Equal(got, []int64{0, 2, 5, 100}) || !slices.Equal(in, wantIn) {
		t.Fatalf("inbox %+v, want slots 0, 2, 5 from proc 0 then proc 1's message", in)
	}
}

// With bad schedules at two processors, the lowest-id one is named.
func TestBadScheduleNamesLowestProcessor(t *testing.T) {
	m := newBSPmLin(8, 4, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("bad schedules did not panic")
		}
		if want := "bsp: proc 3 injects two flits"; !strings.HasPrefix(r.(string), want) {
			t.Fatalf("panic %q, want prefix %q", r, want)
		}
	}()
	m.Superstep(func(c *Ctx) {
		c.Send((c.ID()+1)%8, 0, 0)
		if c.ID() == 3 || c.ID() == 6 {
			c.SendAt(4, 0, Msg{})
			c.SendAt(4, 1, Msg{})
		}
	})
}

func TestAutoSlotAfterSendAt(t *testing.T) {
	m := newBSPmLin(2, 4, 1)
	st := m.Superstep(func(c *Ctx) {
		if c.ID() == 0 {
			c.SendAt(3, 1, Msg{Len: 2}) // slots 3,4
			c.SendMsg(1, Msg{Len: 1})   // auto: slot 5
		}
	})
	if st.Steps != 6 {
		t.Fatalf("Steps = %d, want 6 (auto slot after SendAt)", st.Steps)
	}
}

func TestNonReceiptObservable(t *testing.T) {
	m := newBSPg(3, 1, 1)
	m.Superstep(func(c *Ctx) {
		if c.ID() == 0 {
			c.Send(1, 0, 1) // send only to 1; 2 learns from silence
		}
	})
	learned := make([]int64, 3)
	m.Superstep(func(c *Ctx) {
		if len(c.Recv()) > 0 {
			learned[c.ID()] = 1
		} else {
			learned[c.ID()] = -1 // inferred bit from non-receipt
		}
	})
	if learned[1] != 1 || learned[2] != -1 {
		t.Fatalf("learned = %v", learned)
	}
}

func TestSelfSchedCost(t *testing.T) {
	m := New(Config{P: 8, Cost: model.BSPSelfSched(2, 1), Seed: 1})
	st := m.Superstep(func(c *Ctx) {
		c.Send((c.ID()+1)%8, 0, 1) // n=8, m=2 -> n/m = 4
	})
	if st.Cost != 4 {
		t.Fatalf("self-sched cost = %v, want 4", st.Cost)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []Msg {
		m := New(Config{P: 16, Cost: model.BSPmLinear(4, 1), Seed: 99})
		m.Superstep(func(c *Ctx) {
			dst := c.RNG().Intn(16)
			c.SendAt(c.RNG().Intn(8), dst, Msg{A: int64(c.ID())})
		})
		var all []Msg
		for i := 0; i < 16; i++ {
			all = append(all, m.Inbox(i)...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs delivered different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at message %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestInvalidDstPanics(t *testing.T) {
	m := newBSPg(2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid dst did not panic")
		}
	}()
	m.Superstep(func(c *Ctx) { c.Send(2, 0, 1) })
}

func TestNegativeSlotPanics(t *testing.T) {
	m := newBSPmLin(2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative slot did not panic")
		}
	}()
	m.Superstep(func(c *Ctx) { c.SendAt(-1, 1, Msg{}) })
}

func TestQSMKindRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("QSM cost on bsp.New did not panic")
		}
	}()
	New(Config{P: 2, Cost: model.QSMg(1)})
}

// Property: the total flits received always equals the total flits sent, and
// per-slot histogram totals match N.
func TestConservationOfMessages(t *testing.T) {
	f := func(seed uint64) bool {
		p := 8
		m := New(Config{P: p, Cost: model.BSPmLinear(4, 1), Seed: seed})
		sent := make([]int, p)
		st := m.Superstep(func(c *Ctx) {
			k := c.RNG().Intn(5)
			for j := 0; j < k; j++ {
				c.SendMsg(c.RNG().Intn(p), Msg{A: int64(j)})
			}
			sent[c.ID()] = k
		})
		total := 0
		for _, s := range sent {
			total += s
		}
		recv := 0
		for i := 0; i < p; i++ {
			recv += len(m.Inbox(i))
		}
		return st.N == total && recv == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: BSP(m) cost is always >= the self-scheduling cost for the same
// traffic (the self-scheduling metric is the idealized lower envelope).
func TestBSPmDominatesSelfSched(t *testing.T) {
	f := func(seed uint64) bool {
		p, mm := 8, 2
		run := func(cost model.Cost) model.Time {
			m := New(Config{P: p, Cost: cost, Seed: seed})
			m.Superstep(func(c *Ctx) {
				k := c.RNG().Intn(4)
				for j := 0; j < k; j++ {
					c.SendAt(j, c.RNG().Intn(p), Msg{})
				}
			})
			return m.Time()
		}
		tm := run(model.BSPmLinear(mm, 1))
		ts := run(model.BSPSelfSched(mm, 1))
		return tm >= ts-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgFlits(t *testing.T) {
	if (Msg{Len: 0}).Flits() != 1 || (Msg{Len: -2}).Flits() != 1 || (Msg{Len: 7}).Flits() != 7 {
		t.Fatal("Flits normalization wrong")
	}
}

// A superstep whose program panics commits nothing, and the next clean
// superstep sees none of the panicked one's queued sends, charged work or
// slot cursors: its Stats and observed step match the same superstep on a
// fresh machine primed with the same first superstep. The panic that
// reaches the caller is the program's own, although an earlier processor's
// schedule is invalid.
func TestPanickedSuperstepCommitsNothing(t *testing.T) {
	const p, k = 8, 5
	var views []engine.StepStats
	newMachine := func() *Machine {
		m := New(Config{P: p, Cost: model.BSPm(2, 1), Seed: 1,
			Observer: engine.ObserverFunc(func(st engine.StepStats) {
				st.Hist = slices.Clone(st.Hist)
				views = append(views, st)
			})})
		m.Superstep(func(c *Ctx) {
			if c.ID() == 0 {
				c.Send(1, 0, 7)
				c.Send(6, 0, 9)
			}
		})
		return m
	}
	clean := func(c *Ctx) {
		c.Charge(1 + len(c.Recv()))
		c.Send((c.ID()+1)%p, 1, int64(c.ID()))
		c.Send((c.ID()+3)%p, 2, int64(len(c.Recv())))
		c.SendAt(6, (c.ID()+5)%p, Msg{Tag: 3}) // spans the panicked steps
	}

	m := newMachine()
	primed := m.Time()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the program's own panic", r)
			}
		}()
		m.Superstep(func(c *Ctx) {
			c.Charge(100)
			c.SendAt(3, 0, Msg{Len: 4})
			if c.ID() == 1 {
				c.SendAt(4, 2, Msg{}) // overlaps the 4-flit message
			}
			if c.ID() == k {
				panic("boom")
			}
		})
	}()
	if m.Time() != primed || m.Supersteps() != 1 || len(views) != 1 {
		t.Fatalf("panicked superstep committed: time %v (primed %v), supersteps %d, %d observed", m.Time(), primed, m.Supersteps(), len(views))
	}
	if in := m.Inbox(1); len(in) != 1 || in[0].A != 7 {
		t.Fatalf("panicked superstep changed inbox 1 to %+v", in)
	}

	got := m.Superstep(clean)
	fresh := newMachine()
	want := fresh.Superstep(clean)
	if got != want {
		t.Fatalf("after a panic Stats = %+v, fresh machine %+v", got, want)
	}
	if len(views) != 4 || !reflect.DeepEqual(views[1], views[3]) {
		t.Fatalf("observed %+v, want the same step after a panic as on a fresh machine", views)
	}
	for i := range p {
		if !slices.Equal(m.Inbox(i), fresh.Inbox(i)) {
			t.Fatalf("inbox %d = %+v, fresh machine %+v", i, m.Inbox(i), fresh.Inbox(i))
		}
	}
}
