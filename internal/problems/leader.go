package problems

import (
	"fmt"

	"parbw/internal/collective"
	"parbw/internal/pram"
	"parbw/internal/qsm"
)

// Leader recognition (Definition 5.1): the input is p ROM cells, exactly one
// of which holds 1; every processor must learn the address of that cell.
//
// On the concurrent-read CRCW PRAM(m) the problem takes O(max(lg p / w, 1))
// steps: every processor reads a distinct input cell, the one that finds the
// 1 broadcasts its index through a single shared cell, in ⌈lg p / w⌉ chunks
// of the w-bit cell width. On the exclusive-read PRAM(m) the index must fan
// out through the m shared cells, one reader per cell per step, which takes
// Θ((lg m + p/m) · lg p / w) steps — against the Ω(p·lg m/(m·w)) lower
// bound of Lemma 5.3. The measured gap between the two reproduces the
// Ω(p·lg m / (m·lg p)) ER-versus-CR separation (Theorem 5.2).

// LeaderInput builds the ROM for a leader instance with the 1 at the given
// address.
func LeaderInput(p, leader int) []int64 {
	if leader < 0 || leader >= p {
		panic("problems: leader out of range")
	}
	rom := make([]int64, p)
	rom[leader] = 1
	return rom
}

// chunks returns ⌈bits(p−1) / w⌉, the number of w-bit cell transfers needed
// to move a processor index.
func chunks(p, w int) int {
	need := bitsLen(p - 1)
	if need < 1 {
		need = 1
	}
	k := (need + w - 1) / w
	if k < 1 {
		k = 1
	}
	return k
}

// chunkOf extracts the t-th w-bit chunk of v.
func chunkOf(v int64, t, w int) int64 {
	return (v >> (t * w)) & ((1 << w) - 1)
}

// LeaderCR solves leader recognition on a concurrent-read CRCW machine with
// ROM. It returns the leader address learned by each processor.
func LeaderCR(m *pram.Machine) []int64 {
	if !m.Mode().Concurrent() {
		panic("problems: LeaderCR needs a concurrent-read machine")
	}
	p := m.P()
	w := m.CellBits()
	k := chunks(p, w)
	isLeader := make([]bool, p)
	m.Step(func(c *pram.Ctx) {
		if c.ReadROM(c.ID()) == 1 {
			isLeader[c.ID()] = true
			c.Write(0, chunkOf(int64(c.ID()), 0, w))
		}
	})
	out := make([]int64, p)
	for t := 0; t < k; t++ {
		tt := t
		m.Step(func(c *pram.Ctx) {
			out[c.ID()] |= c.Read(0) << (tt * w)
			if isLeader[c.ID()] && tt+1 < k {
				c.Write(0, chunkOf(int64(c.ID()), tt+1, w))
			}
		})
	}
	return out
}

// LeaderER solves leader recognition on an exclusive-read machine (EREW
// mode) with ROM, fanning the answer out through mm shared cells. It
// returns the leader address learned by each processor.
//
// Each round moves the address from width <= mm knowing processors to width
// new ones through cells [0, width), one reader and one writer per cell,
// write and read on alternating steps (EREW forbids touching a cell twice
// in one step). Rounds double the knowing set until it reaches mm, then
// proceed in batches of mm: Θ((lg mm + p/mm) · ⌈lg p / w⌉) steps in total.
func LeaderER(m *pram.Machine, mm int) []int64 {
	if m.Mode() != pram.EREW {
		panic("problems: LeaderER needs an EREW machine")
	}
	if mm < 1 || mm > m.Mem() {
		panic(fmt.Sprintf("problems: LeaderER fan-out width %d out of range (mem %d)", mm, m.Mem()))
	}
	p := m.P()
	w := m.CellBits()
	k := chunks(p, w)
	out := make([]int64, p)

	// Discover the leader (ROM reads are free; this costs one step).
	m.Step(func(c *pram.Ctx) {
		if c.ReadROM(c.ID()) == 1 {
			out[c.ID()] = int64(c.ID())
		}
	})

	// Processors [0, csz) know the address (the leader's value has been
	// relabeled to processor 0's slot by symmetry: processor 0 learns
	// first).
	if p == 1 {
		return out
	}
	// Move the address from the leader to processor 0 through cell 0.
	for t := 0; t < k; t++ {
		tt := t
		m.Step(func(c *pram.Ctx) {
			if c.ReadROM(c.ID()) == 1 {
				c.Write(0, chunkOf(out[c.ID()], tt, w))
			}
		})
		m.Step(func(c *pram.Ctx) {
			if c.ID() == 0 {
				out[0] |= c.Read(0) << (tt * w)
			}
		})
	}

	for csz := 1; csz < p; {
		width := csz
		if width > mm {
			width = mm
		}
		if csz+width > p {
			width = p - csz
		}
		base := csz
		for t := 0; t < k; t++ {
			tt := t
			m.Step(func(c *pram.Ctx) { // writers publish chunk t
				if c.ID() < width {
					c.Write(c.ID(), chunkOf(out[c.ID()], tt, w))
				}
			})
			m.Step(func(c *pram.Ctx) { // readers collect chunk t
				i := c.ID()
				if i >= base && i < base+width {
					out[i] |= c.Read(i-base) << (tt * w)
				}
			})
		}
		csz += width
	}
	return out
}

// LeaderQSM solves leader recognition on a QSM machine (the model of
// Lemma 5.3 itself): every processor reads its own input cell (the input
// occupies machine cells [inBase, inBase+p)), the processor that finds the
// 1 seeds a broadcast of its index through cells [0, p), and the doubling
// broadcast distributes it. Upper bound Θ(lg m + p/m) on the QSM(m) —
// against the lemma's Ω(p·lg m/(m·w)) — and Θ(g·(lg p/lg g + 1)) on the
// QSM(g). The machine needs Mem >= inBase + p with inBase >= 2p (the
// broadcast scratch).
func LeaderQSM(m *qsm.Machine, inBase, leader int) []int64 {
	p := m.P()
	if inBase < 2*p || m.Mem() < inBase+p {
		panic("problems: LeaderQSM needs Mem >= inBase+p, inBase >= 2p")
	}
	if leader < 0 || leader >= p {
		panic("problems: leader out of range")
	}
	m.Store(inBase+leader, 1)
	found := make([]bool, p)
	mm := m.Cost().Budget(p)
	// Every processor reads its own input cell (spread m per step).
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		if c.ReadAt(i/mm, inBase+i) == 1 {
			found[i] = true
		}
	})
	// The finder broadcasts its index.
	root := -1
	for i, f := range found {
		if f {
			root = i
		}
	}
	return collective.BroadcastQSM(m, root, int64(root))
}
