package pram

import (
	"testing"
	"testing/quick"
)

// Metamorphic properties of the PRAM engines.

// QRQW cost equals CRCW cost when there is no contention, and exceeds it
// exactly by the queue factor otherwise.
func TestQRQWvsCRCWCost(t *testing.T) {
	f := func(seed uint64) bool {
		p := 8
		target := int(seed % 4) // 0..3 cells contended
		run := func(mode Mode) float64 {
			m := New(Config{P: p, Mem: 8, Mode: mode, Seed: seed})
			m.Step(func(c *Ctx) {
				if target == 0 {
					c.Read(c.ID()) // contention-free
				} else {
					c.Read(c.ID() % target)
				}
			})
			return m.Time()
		}
		qr, cr := run(QRQW), run(CRCWArbitrary)
		if target == 0 || target == p {
			return qr == cr
		}
		return qr >= cr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Writer resolution: Priority and Arbitrary agree when there is a single
// writer per cell.
func TestResolutionAgreesWithoutContention(t *testing.T) {
	f := func(seed uint64) bool {
		p := 8
		run := func(mode Mode) []int64 {
			m := New(Config{P: p, Mem: p, Mode: mode, Seed: seed})
			m.Step(func(c *Ctx) {
				c.Write(c.ID(), int64(c.ID())*7)
			})
			out := make([]int64, p)
			for a := range out {
				out[a] = m.Load(a)
			}
			return out
		}
		a, b := run(CRCWArbitrary), run(CRCWPriority)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Priority winner is always <= Arbitrary winner's processor id under our
// deterministic rules (lowest vs highest).
func TestWinnerOrdering(t *testing.T) {
	p := 6
	arb := New(Config{P: p, Mem: 1, Mode: CRCWArbitrary, Seed: 1})
	arb.Step(func(c *Ctx) { c.Write(0, int64(c.ID())) })
	pri := New(Config{P: p, Mem: 1, Mode: CRCWPriority, Seed: 1})
	pri.Step(func(c *Ctx) { c.Write(0, int64(c.ID())) })
	if !(pri.Load(0) <= arb.Load(0)) {
		t.Fatalf("priority winner %d > arbitrary winner %d", pri.Load(0), arb.Load(0))
	}
}

// Steps are compositional: running k idle steps costs exactly k.
func TestIdleStepsLinear(t *testing.T) {
	m := New(Config{P: 4, Mem: 4, Mode: EREW, Seed: 1})
	m.Run(13, func(step int, c *Ctx) {})
	if m.Time() != 13 {
		t.Fatalf("13 idle steps cost %v", m.Time())
	}
}

// ROM reads never change cost or shared state.
func TestROMReadsFree(t *testing.T) {
	rom := make([]int64, 16)
	m := New(Config{P: 16, Mem: 4, Mode: CRCWArbitrary, ROM: rom, Seed: 1})
	m.Step(func(c *Ctx) {
		for j := 0; j < 5; j++ {
			c.ReadROM(c.ID())
		}
	})
	if m.Time() != 1 || m.BitsMoved() != 0 {
		t.Fatalf("ROM reads charged: time %v bits %d", m.Time(), m.BitsMoved())
	}
	if m.ROMReads() != 80 {
		t.Fatalf("ROMReads = %d, want 80", m.ROMReads())
	}
}
