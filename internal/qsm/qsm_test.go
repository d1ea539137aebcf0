package qsm

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"parbw/internal/engine"
	"parbw/internal/model"
)

func newQSMg(p, mem, g int) *Machine {
	return New(Config{P: p, Mem: mem, Cost: model.QSMg(g), Seed: 1})
}

func newQSMmLin(p, mem, m int) *Machine {
	return New(Config{P: p, Mem: mem, Cost: model.QSMmLinear(m), Seed: 1})
}

func TestWriteVisibleNextPhase(t *testing.T) {
	m := newQSMg(2, 4, 1)
	m.Phase(func(c *Ctx) {
		if c.ID() == 0 {
			c.Write(2, 77)
		}
	})
	var got int64
	m.Phase(func(c *Ctx) {
		if c.ID() == 1 {
			got = c.Read(2)
		}
	})
	if got != 77 {
		t.Fatalf("read %d, want 77", got)
	}
}

func TestReadsSeePhaseStartSnapshot(t *testing.T) {
	m := newQSMg(2, 4, 1)
	m.Store(0, 5)
	var seen int64 = -1
	m.Phase(func(c *Ctx) {
		switch c.ID() {
		case 0:
			c.Write(1, 9) // write to a different cell than the read below
		case 1:
			seen = c.Read(0)
		}
	})
	if seen != 5 {
		t.Fatalf("read %d, want phase-start value 5", seen)
	}
}

func TestArbitraryWriteHighestWins(t *testing.T) {
	m := newQSMg(4, 2, 1)
	m.Phase(func(c *Ctx) {
		c.Write(0, int64(c.ID()+100))
	})
	if got := m.Load(0); got != 103 {
		t.Fatalf("winner = %d, want 103 (highest-numbered writer)", got)
	}
}

func TestContentionKappa(t *testing.T) {
	m := newQSMg(8, 4, 2)
	st := m.Phase(func(c *Ctx) {
		c.Read(1) // all 8 read one location
	})
	// κ = 8, h = 1, cost = max(0, g·1=2, 8) = 8.
	if st.Kappa != 8 || st.Cost != 8 {
		t.Fatalf("stats = %+v, want Kappa=8 Cost=8", st)
	}
}

func TestQSMgHCost(t *testing.T) {
	m := newQSMg(4, 64, 3)
	st := m.Phase(func(c *Ctx) {
		for j := 0; j < 5; j++ {
			c.Read(c.ID()*8 + j) // distinct cells: κ = 1, h = 5
		}
	})
	if st.H != 5 || st.Cost != 15 {
		t.Fatalf("stats = %+v, want H=5 Cost=15", st)
	}
}

func TestReadWriteSameCellPanics(t *testing.T) {
	m := newQSMg(2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("read+write same location did not panic")
		}
	}()
	m.Phase(func(c *Ctx) {
		if c.ID() == 0 {
			c.Read(1)
		} else {
			c.Write(1, 3)
		}
	})
}

func TestQSMmScheduledCost(t *testing.T) {
	m := newQSMmLin(8, 16, 2)
	// 8 processors each issue one request, two per step across 4 steps:
	// c_m = 4; h = 1; κ = 1; cost = 4.
	st := m.Phase(func(c *Ctx) {
		c.WriteAt(c.ID()/2, c.ID(), int64(c.ID()))
	})
	if st.CM != 4 || st.Cost != 4 || st.MaxSlot != 2 {
		t.Fatalf("stats = %+v, want CM=4 Cost=4 MaxSlot=2", st)
	}
}

func TestQSMmOverload(t *testing.T) {
	m := newQSMmLin(8, 16, 2)
	st := m.Phase(func(c *Ctx) {
		c.WriteAt(0, c.ID(), 1) // all 8 requests in step 0
	})
	if st.CM != 4 || st.Overload != 1 {
		t.Fatalf("stats = %+v, want CM=4 Overload=1", st)
	}
}

func TestOneRequestPerStepEnforced(t *testing.T) {
	m := newQSMmLin(2, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("two requests in one step did not panic")
		}
	}()
	m.Phase(func(c *Ctx) {
		if c.ID() == 0 {
			c.ReadAt(3, 0)
			c.WriteAt(3, 1, 5)
		}
	})
}

func TestIdlePhaseCost(t *testing.T) {
	m := newQSMg(4, 4, 5)
	st := m.Phase(func(c *Ctx) { c.Charge(2) })
	// h floored at 1: cost = max(w=2, g·1=5, κ=0) = 5.
	if st.Cost != 5 {
		t.Fatalf("idle cost = %v, want 5", st.Cost)
	}
}

func TestLocalWorkDominates(t *testing.T) {
	m := newQSMg(4, 4, 1)
	st := m.Phase(func(c *Ctx) {
		if c.ID() == 2 {
			c.Charge(40)
		}
	})
	if st.W != 40 || st.Cost != 40 {
		t.Fatalf("stats = %+v, want W=40 Cost=40", st)
	}
}

func TestInvalidAddressPanics(t *testing.T) {
	m := newQSMg(2, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid address did not panic")
		}
	}()
	m.Phase(func(c *Ctx) { c.Read(4) })
}

func TestBSPKindRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BSP cost on qsm.New did not panic")
		}
	}()
	New(Config{P: 2, Mem: 2, Cost: model.BSPg(1, 1)})
}

// Property: concurrent reads return the stored value for all readers, and κ
// equals the reader count when all processors read one cell.
func TestConcurrentReadConsistency(t *testing.T) {
	f := func(seed uint64, val int64) bool {
		p := int(seed%7) + 2
		m := New(Config{P: p, Mem: 4, Cost: model.QSMg(1), Seed: seed})
		m.Store(3, val)
		vals := make([]int64, p)
		st := m.Phase(func(c *Ctx) {
			vals[c.ID()] = c.Read(3)
		})
		if st.Kappa != p {
			return false
		}
		for _, v := range vals {
			if v != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: with equal aggregate bandwidth and a balanced schedule, the
// QSM(m) phase never costs more than the QSM(g) phase for the same accesses
// (the Section 4 grouped emulation).
func TestGroupedEmulationDominance(t *testing.T) {
	f := func(seed uint64) bool {
		g := 1 << (seed % 4) // 1, 2, 4 or 8 — must divide p
		p := 16
		mBW := p / g
		lm := New(Config{P: p, Mem: p, Cost: model.QSMg(g), Seed: seed})
		gm := newQSMmLin(p, p, mBW)
		lm.Phase(func(c *Ctx) { c.Write(c.ID(), 1) })
		gm.Phase(func(c *Ctx) {
			// Emulation: processor i issues its request in substep i / m.
			c.WriteAt(c.ID()/mBW, c.ID(), 1)
		})
		return gm.Time() <= lm.Time()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A phase whose program panics commits nothing, and the next clean phase
// sees none of the panicked one's buffered requests, charged work or slot
// cursors: its Stats and observed step match the same phase on a fresh
// machine with the same memory. The panic that reaches the caller is the
// program's own, although an earlier processor's schedule is invalid.
func TestPanickedPhaseCommitsNothing(t *testing.T) {
	const p, k = 8, 5
	var views []engine.StepStats
	newMachine := func() *Machine {
		m := New(Config{P: p, Mem: p + 1, Cost: model.QSMm(2), Seed: 1,
			Observer: engine.ObserverFunc(func(st engine.StepStats) {
				st.Hist = slices.Clone(st.Hist)
				views = append(views, st)
			})})
		m.Store(p, 42)
		return m
	}
	clean := func(c *Ctx) {
		c.Charge(1)
		v := c.Read(p)
		c.Write(c.ID(), v+int64(c.ID()))
	}

	m := newMachine()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the program's own panic", r)
			}
		}()
		m.Phase(func(c *Ctx) {
			c.Charge(100)
			c.WriteAt(3, c.ID(), -1)
			if c.ID() == 1 {
				c.ReadAt(3, p) // a second request in step 3
			}
			if c.ID() == k {
				panic("boom")
			}
		})
	}()
	if m.Time() != 0 || m.Phases() != 0 || len(views) != 0 {
		t.Fatalf("panicked phase committed: time %v, phases %d, %d observed", m.Time(), m.Phases(), len(views))
	}
	for a := range p {
		if v := m.Load(a); v != 0 {
			t.Fatalf("panicked phase wrote %d to cell %d", v, a)
		}
	}

	got := m.Phase(clean)
	fresh := newMachine()
	want := fresh.Phase(clean)
	if got != want {
		t.Fatalf("after a panic Stats = %+v, fresh machine %+v", got, want)
	}
	if len(views) != 2 || !reflect.DeepEqual(views[0], views[1]) {
		t.Fatalf("observed %+v, want the same step after a panic as on a fresh machine", views)
	}
	for a := range p + 1 {
		if m.Load(a) != fresh.Load(a) {
			t.Fatalf("cell %d = %d, fresh machine %d", a, m.Load(a), fresh.Load(a))
		}
	}
}

// The request histogram is recycled across phases: a phase over fewer steps
// than the one before it reuses the buffer and sees none of its counts.
func TestHistRecycled(t *testing.T) {
	const p = 8
	var raw, seen [][]int
	m := New(Config{P: p, Mem: p * p, Cost: model.QSMm(2), Seed: 1,
		Observer: engine.ObserverFunc(func(st engine.StepStats) {
			raw = append(raw, st.Hist)
			seen = append(seen, slices.Clone(st.Hist))
		})})
	m.Phase(func(c *Ctx) {
		for j := range p {
			c.WriteAt(j, c.ID()*p+j, 1)
		}
	})
	m.Phase(func(c *Ctx) {
		if c.ID() == 0 {
			c.ReadAt(1, 0)
		}
	})
	if want := []int{8, 8, 8, 8, 8, 8, 8, 8}; !slices.Equal(seen[0], want) {
		t.Fatalf("first hist = %v, want %v", seen[0], want)
	}
	if want := []int{0, 1}; !slices.Equal(seen[1], want) {
		t.Fatalf("second hist = %v, want %v (stale counts)", seen[1], want)
	}
	if &raw[0][0] != &raw[1][0] {
		t.Fatal("histogram buffer not recycled")
	}
}
