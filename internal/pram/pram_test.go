package pram

import (
	"reflect"
	"testing"
	"testing/quick"

	"parbw/internal/engine"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(Config{P: 4, Mem: 8, Mode: EREW, Seed: 1})
	m.Step(func(c *Ctx) {
		c.Write(c.ID(), int64(c.ID()*10))
	})
	vals := make([]int64, 4)
	m.Step(func(c *Ctx) {
		vals[c.ID()] = c.Read(c.ID())
	})
	for i, v := range vals {
		if v != int64(i*10) {
			t.Fatalf("proc %d read %d, want %d", i, v, i*10)
		}
	}
	if m.Time() != 2 {
		t.Fatalf("Time = %v, want 2", m.Time())
	}
}

func TestReadSeesStepStartValue(t *testing.T) {
	m := New(Config{P: 2, Mem: 2, Mode: CRCWArbitrary, Seed: 1})
	m.Store(0, 5)
	var seen int64
	m.Step(func(c *Ctx) {
		if c.ID() == 0 {
			c.Write(0, 9)
		} else {
			seen = c.Read(0)
		}
	})
	if seen != 5 {
		t.Fatalf("read %d, want step-start value 5", seen)
	}
	if m.Load(0) != 9 {
		t.Fatalf("cell = %d after commit, want 9", m.Load(0))
	}
}

func TestEREWConcurrentReadPanics(t *testing.T) {
	m := New(Config{P: 2, Mem: 2, Mode: EREW, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("EREW concurrent read did not panic")
		}
	}()
	m.Step(func(c *Ctx) { c.Read(0) })
}

func TestEREWReadWriteSameCellPanics(t *testing.T) {
	m := New(Config{P: 2, Mem: 2, Mode: EREW, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("EREW read+write same cell did not panic")
		}
	}()
	m.Step(func(c *Ctx) {
		if c.ID() == 0 {
			c.Read(0)
		} else {
			c.Write(0, 1)
		}
	})
}

func TestQRQWCostIsMaxQueue(t *testing.T) {
	m := New(Config{P: 6, Mem: 4, Mode: QRQW, Seed: 1})
	st := m.Step(func(c *Ctx) {
		c.Read(c.ID() % 2) // cells 0 and 1 each read by 3 procs
	})
	if st.Kappa != 3 || st.Cost != 3 {
		t.Fatalf("stats = %+v, want Kappa=3 Cost=3", st)
	}
}

func TestQRQWUnitCostWithoutContention(t *testing.T) {
	m := New(Config{P: 4, Mem: 8, Mode: QRQW, Seed: 1})
	st := m.Step(func(c *Ctx) { c.Read(c.ID()) })
	if st.Cost != 1 {
		t.Fatalf("cost = %v, want 1", st.Cost)
	}
}

func TestCRCWArbitraryHighestWins(t *testing.T) {
	m := New(Config{P: 5, Mem: 1, Mode: CRCWArbitrary, Seed: 1})
	m.Step(func(c *Ctx) { c.Write(0, int64(c.ID())) })
	if m.Load(0) != 4 {
		t.Fatalf("winner = %d, want 4", m.Load(0))
	}
}

func TestCRCWPriorityLowestWins(t *testing.T) {
	m := New(Config{P: 5, Mem: 1, Mode: CRCWPriority, Seed: 1})
	m.Step(func(c *Ctx) { c.Write(0, int64(c.ID()+100)) })
	if m.Load(0) != 100 {
		t.Fatalf("winner = %d, want 100", m.Load(0))
	}
}

func TestCRCWCommonAgreeingWritersOK(t *testing.T) {
	m := New(Config{P: 4, Mem: 1, Mode: CRCWCommon, Seed: 1})
	m.Step(func(c *Ctx) { c.Write(0, 42) })
	if m.Load(0) != 42 {
		t.Fatal("common write lost")
	}
}

func TestCRCWCommonDisagreementPanics(t *testing.T) {
	m := New(Config{P: 2, Mem: 1, Mode: CRCWCommon, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("disagreeing Common writers did not panic")
		}
	}()
	m.Step(func(c *Ctx) { c.Write(0, int64(c.ID())) })
}

func TestTwoReadsOneStepPanics(t *testing.T) {
	m := New(Config{P: 1, Mem: 4, Mode: CRCWArbitrary, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("two reads in one step did not panic")
		}
	}()
	m.Step(func(c *Ctx) { c.Read(0); c.Read(1) })
}

func TestROM(t *testing.T) {
	rom := []int64{7, 8, 9}
	m := New(Config{P: 3, Mem: 1, Mode: CRCWArbitrary, ROM: rom, Seed: 1})
	vals := make([]int64, 3)
	st := m.Step(func(c *Ctx) {
		vals[c.ID()] = c.ReadROM(c.ID())
	})
	for i, v := range vals {
		if v != rom[i] {
			t.Fatalf("ROM read %d = %d", i, v)
		}
	}
	// ROM reads are free: no shared accesses, cost 1 (the step itself).
	if st.Reads != 0 || st.Bits != 0 {
		t.Fatalf("ROM reads were charged: %+v", st)
	}
	if m.ROMReads() != 3 {
		t.Fatalf("ROMReads = %d, want 3", m.ROMReads())
	}
}

func TestROMAbsentPanics(t *testing.T) {
	m := New(Config{P: 1, Mem: 1, Mode: EREW, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("ReadROM without ROM did not panic")
		}
	}()
	m.Step(func(c *Ctx) { c.ReadROM(0) })
}

func TestBitsAccounting(t *testing.T) {
	m := New(Config{P: 4, Mem: 8, Mode: CRCWArbitrary, CellBits: 8, Seed: 1})
	m.Step(func(c *Ctx) {
		c.Read(c.ID())
		c.Write(c.ID()+4, 1)
	})
	// 4 reads + 4 writes at 8 bits each.
	if m.BitsMoved() != 64 {
		t.Fatalf("BitsMoved = %d, want 64", m.BitsMoved())
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		EREW: "EREW", QRQW: "QRQW", CRCWCommon: "CRCW-Common",
		CRCWArbitrary: "CRCW-Arbitrary", CRCWPriority: "CRCW-Priority",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
	if EREW.Concurrent() || !QRQW.Concurrent() {
		t.Fatal("Concurrent() wrong")
	}
}

// Property: a parallel prefix-style doubling computation on EREW produces
// the same result as a sequential scan — exercises multi-step correctness
// of snapshot reads and write commits.
func TestEREWPointerDoublingSum(t *testing.T) {
	f := func(seed uint64) bool {
		n := 8
		m := New(Config{P: n, Mem: 2 * n, Mode: EREW, Seed: seed})
		vals := make([]int64, n)
		s := int64(0)
		for i := range vals {
			vals[i] = int64((seed>>uint(i))&0xf) + 1
			s += vals[i]
			m.Store(i, vals[i])
		}
		// log n rounds of a[i] += a[i - 2^k] using the spare half as a
		// double buffer each round (EREW-safe: disjoint reads and writes).
		cur, nxt := 0, n
		for k := 1; k < n; k *= 2 {
			kk := k
			cc, nn := cur, nxt
			// Read step: everyone copies its operand pair into private vars
			// via two EREW steps (one read per step).
			a := make([]int64, n)
			b := make([]int64, n)
			m.Step(func(c *Ctx) { a[c.ID()] = c.Read(cc + c.ID()) })
			m.Step(func(c *Ctx) {
				if c.ID() >= kk {
					b[c.ID()] = c.Read(cc + c.ID() - kk)
				}
			})
			m.Step(func(c *Ctx) { c.Write(nn+c.ID(), a[c.ID()]+b[c.ID()]) })
			cur, nxt = nxt, cur
		}
		return m.Load(cur+n-1) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A step whose program panics commits nothing, and the next clean step sees
// none of the panicked one's buffered accesses: its Stats and observed step
// match the same step on a fresh machine with the same memory, although the
// panicked step left its arena longer than the clean step's.
func TestPanickedStepCommitsNothing(t *testing.T) {
	const p, k = 8, 5
	var views []engine.StepStats
	newMachine := func() *Machine {
		m := New(Config{P: p, Mem: p + 1, Mode: CRCWArbitrary, Seed: 1,
			Observer: engine.ObserverFunc(func(st engine.StepStats) { views = append(views, st) })})
		m.Store(p, 42)
		return m
	}
	clean := func(c *Ctx) {
		if c.ID()%2 == 0 {
			v := c.Read(p)
			c.Write(c.ID(), v+int64(c.ID()))
		}
	}

	m := newMachine()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the program's own panic", r)
			}
		}()
		m.Step(func(c *Ctx) {
			c.Read(p)
			c.Write(c.ID(), -1)
			if c.ID() == k {
				panic("boom")
			}
		})
	}()
	if m.Time() != 0 || m.Steps() != 0 || m.BitsMoved() != 0 || len(views) != 0 {
		t.Fatalf("panicked step committed: time %v, steps %d, bits %d, %d observed", m.Time(), m.Steps(), m.BitsMoved(), len(views))
	}
	for a := range p {
		if v := m.Load(a); v != 0 {
			t.Fatalf("panicked step wrote %d to cell %d", v, a)
		}
	}

	got := m.Step(clean)
	fresh := newMachine()
	want := fresh.Step(clean)
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
