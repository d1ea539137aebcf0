package bsp

import (
	"strings"
	"testing"
	"testing/quick"

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

func TestLongMessageOverlapPanics(t *testing.T) {
	m := newBSPmLin(2, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping long message did not panic")
		}
	}()
	m.Superstep(func(c *Ctx) {
		if c.ID() == 0 {
			c.SendAt(0, 1, Msg{Len: 3})
			c.SendAt(2, 1, Msg{Len: 1})
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

func TestDeliverAndInbox(t *testing.T) {
	m := newBSPg(2, 1, 1)
	m.Deliver([]Msg{{Dst: 1, A: 5}})
	if len(m.Inbox(1)) != 1 || m.Inbox(1)[0].A != 5 {
		t.Fatal("Deliver did not reach inbox")
	}
	if m.Time() != 0 {
		t.Fatal("Deliver charged time")
	}
}

func TestChargeTime(t *testing.T) {
	m := newBSPg(2, 1, 1)
	m.ChargeTime(17)
	if m.Time() != 17 {
		t.Fatalf("Time = %v, want 17", m.Time())
	}
}

func TestReset(t *testing.T) {
	m := newBSPg(2, 1, 1)
	m.Superstep(func(c *Ctx) { c.Send(1-c.ID(), 0, 1) })
	m.Reset()
	if m.Time() != 0 || m.Supersteps() != 0 || len(m.Inbox(0)) != 0 {
		t.Fatal("Reset incomplete")
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
