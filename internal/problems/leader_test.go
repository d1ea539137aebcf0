package problems

import (
	"testing"
	"testing/quick"

	"parbw/internal/lower"
	"parbw/internal/model"
	"parbw/internal/pram"
	"parbw/internal/qsm"
)

func crMachine(p, mm, bits int, rom []int64) *pram.Machine {
	return pram.New(pram.Config{P: p, Mem: mm, Mode: pram.CRCWArbitrary, ROM: rom, CellBits: bits, Seed: 1})
}

func erMachine(p, mm, bits int, rom []int64) *pram.Machine {
	return pram.New(pram.Config{P: p, Mem: mm, Mode: pram.EREW, ROM: rom, CellBits: bits, Seed: 1})
}

func TestLeaderCR(t *testing.T) {
	for _, p := range []int{1, 2, 8, 64, 100} {
		for _, leader := range []int{0, p / 2, p - 1} {
			m := crMachine(p, 4, 64, LeaderInput(p, leader))
			out := LeaderCR(m)
			for i, v := range out {
				if v != int64(leader) {
					t.Fatalf("p=%d leader=%d: proc %d learned %d", p, leader, i, v)
				}
			}
		}
	}
}

func TestLeaderCRNarrowCells(t *testing.T) {
	// w = 2 bits: a p=64 index needs 3 chunks; still must work.
	p, leader := 64, 45
	m := crMachine(p, 4, 2, LeaderInput(p, leader))
	out := LeaderCR(m)
	for i, v := range out {
		if v != int64(leader) {
			t.Fatalf("proc %d learned %d, want %d", i, v, leader)
		}
	}
	// Time should be ~⌈lg p / w⌉ + 1 steps.
	if m.Time() > 6 {
		t.Fatalf("CR leader took %v steps, want <= 6", m.Time())
	}
}

func TestLeaderER(t *testing.T) {
	for _, p := range []int{1, 2, 8, 64, 100} {
		for _, mm := range []int{1, 2, 8} {
			for _, leader := range []int{0, p - 1} {
				m := erMachine(p, mm, 64, LeaderInput(p, leader))
				out := LeaderER(m, mm)
				for i, v := range out {
					if v != int64(leader) {
						t.Fatalf("p=%d mm=%d leader=%d: proc %d learned %d", p, mm, leader, i, v)
					}
				}
			}
		}
	}
}

func TestLeaderERProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := 2 + int(seed%100)
		mm := 1 + int(seed%7)
		leader := int((seed >> 8) % uint64(p))
		m := erMachine(p, mm, 64, LeaderInput(p, leader))
		out := LeaderER(m, mm)
		for _, v := range out {
			if v != int64(leader) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 5.2 shape: the ER/CR time gap grows like p/(m·...) for fixed m.
func TestLeaderSeparationGrowsWithP(t *testing.T) {
	mm := 4
	prevGap := 0.0
	for _, p := range []int{64, 256, 1024} {
		cr := crMachine(p, mm, 64, LeaderInput(p, p/2))
		LeaderCR(cr)
		er := erMachine(p, mm, 64, LeaderInput(p, p/2))
		LeaderER(er, mm)
		gap := er.Time() / cr.Time()
		if gap <= prevGap {
			t.Fatalf("p=%d: ER/CR gap %v did not grow (prev %v)", p, gap, prevGap)
		}
		prevGap = gap
	}
}

func TestLeaderERTimeShape(t *testing.T) {
	// ER time should be Θ(lg mm + p/mm) steps (w >= lg p), within a small
	// constant factor.
	p, mm := 256, 8
	m := erMachine(p, mm, 64, LeaderInput(p, 3))
	LeaderER(m, mm)
	shape := float64(p)/float64(mm) + 3 // lg mm
	if m.Time() > 4*shape || m.Time() < shape/4 {
		t.Fatalf("ER time %v vs shape %v out of range", m.Time(), shape)
	}
}

func TestLeaderWrongModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LeaderCR on EREW did not panic")
		}
	}()
	LeaderCR(erMachine(4, 2, 64, LeaderInput(4, 0)))
}

func TestLeaderInputValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range leader accepted")
		}
	}()
	LeaderInput(4, 4)
}

func TestChunks(t *testing.T) {
	if chunks(256, 64) != 1 {
		t.Fatal("chunks(256,64) != 1")
	}
	if chunks(256, 2) != 4 {
		t.Fatalf("chunks(256,2) = %d, want 4", chunks(256, 2))
	}
	if chunks(1, 64) != 1 {
		t.Fatal("chunks(1,64) != 1")
	}
}

func TestChunkOf(t *testing.T) {
	v := int64(0b110110)
	if chunkOf(v, 0, 2) != 0b10 || chunkOf(v, 1, 2) != 0b01 || chunkOf(v, 2, 2) != 0b11 {
		t.Fatal("chunkOf wrong")
	}
}

func TestLeaderQSM(t *testing.T) {
	for _, mk := range []func(p int) *qsm.Machine{
		func(p int) *qsm.Machine {
			return qsm.New(qsm.Config{P: p, Mem: 3 * p, Cost: model.QSMm(4), Seed: 1})
		},
		func(p int) *qsm.Machine {
			return qsm.New(qsm.Config{P: p, Mem: 3 * p, Cost: model.QSMg(4), Seed: 1})
		},
	} {
		for _, p := range []int{4, 32, 100} {
			for _, leader := range []int{0, p / 2, p - 1} {
				m := mk(p)
				out := LeaderQSM(m, 2*p, leader)
				for i, v := range out {
					if v != int64(leader) {
						t.Fatalf("p=%d leader=%d: proc %d learned %d", p, leader, i, v)
					}
				}
			}
		}
	}
}

func TestLeaderQSMTimeShape(t *testing.T) {
	// Θ(lg m + p/m) on the QSM(m): time falls as m rises.
	p := 512
	run := func(mm int) float64 {
		m := qsm.New(qsm.Config{P: p, Mem: 3 * p, Cost: model.QSMm(mm), Seed: 2})
		LeaderQSM(m, 2*p, p/3)
		return m.Time()
	}
	t4, t64 := run(4), run(64)
	if t4 <= t64 {
		t.Fatalf("time not decreasing in m: %v vs %v", t4, t64)
	}
	// Measured must clear the Lemma 5.3 lower bound.
	if t4 < lowerLeaderLB(p, 4) {
		t.Fatalf("measured %v below the Ω(p·lg m/(m·w)) bound %v", t4, lowerLeaderLB(p, 4))
	}
}

func lowerLeaderLB(p, m int) float64 {
	return lower.LeaderLBQSMm(p, m, 64)
}

func TestLeaderQSMValidation(t *testing.T) {
	m := qsm.New(qsm.Config{P: 8, Mem: 24, Cost: model.QSMm(2), Seed: 1})
	for _, fn := range []func(){
		func() { LeaderQSM(m, 8, 0) },  // inBase < 2p
		func() { LeaderQSM(m, 16, 9) }, // leader out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid LeaderQSM input accepted")
				}
			}()
			fn()
		}()
	}
}
