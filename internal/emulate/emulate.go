// Package emulate implements the cross-model emulations of the paper:
//
//   - The Section 4 grouping observation: any BSP(g) (resp. QSM(g))
//     algorithm runs on the BSP(m) (resp. QSM(m)) with m = p/g in the same
//     time bound, by partitioning the processors into g groups of m and
//     letting group i inject in the i-th substep of each communication
//     step. RunGroupedBSP applies this schedule to one superstep's sends.
//
//   - Theorem 5.1: one step of the CRCW PRAM(m) can be simulated on the
//     QSM(m) in O(p/m) time for m = O(p^{1-ε}), by sorting the read
//     requests to eliminate duplicate-address fan-out, serving one
//     designated read per address block, and distributing values back
//     through "central read steps" in which at most one processor touches
//     any cell per step.
package emulate

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/problems"
	"parbw/internal/qsm"
)

// GroupedSend issues one message from the calling processor inside a
// superstep, scheduled by the Section 4 group emulation: processor i's
// message starts at step k·g + (i mod g), where k is the number of flits i
// sent before it in the superstep. When every message has Len = 1, every
// step carries at most p/g = m messages. A longer message's flits occupy
// consecutive steps and run into the next group's slots, so the bound fails:
// at p = 16, g = 4 with three two-flit messages per processor, the max slot
// load is 8 and 9 steps are overloaded (ROADMAP, group-emulation oracle).
func GroupedSend(c *bsp.Ctx, g, k, dst int, msg bsp.Msg) {
	c.SendAt(k*g+(c.ID()%g), dst, msg)
}

// RunGroupedBSP runs one emulated BSP(g) superstep on a globally-limited
// machine: fn receives a send function that queues messages under the group
// schedule. It returns the superstep stats. On a machine with m >= p/g the
// schedule never exceeds the aggregate limit provided every message has
// Len = 1; with multi-flit messages it can (see GroupedSend).
func RunGroupedBSP(m *bsp.Machine, g int, fn func(c *bsp.Ctx, send func(dst int, msg bsp.Msg))) bsp.Stats {
	if g < 1 {
		panic("emulate: group emulation needs g >= 1")
	}
	return m.Superstep(func(c *bsp.Ctx) {
		k := 0
		fn(c, func(dst int, msg bsp.Msg) {
			GroupedSend(c, g, k, dst, msg)
			k += msg.Flits()
		})
	})
}

// PRAMm is the simulated CRCW PRAM(m) state hosted on a QSM(m): mcells
// shared cells held in the QSM machine's memory region [base, base+mcells).
type PRAMm struct {
	Base   int
	MCells int
}

// SimulateCRCWRead simulates one concurrent-read step of the CRCW PRAM(m)
// on the QSM machine per Theorem 5.1: every processor i wants the value of
// simulated cell addr[i] (duplicates arbitrary — all p processors may read
// one cell). Returns the value each processor obtained.
//
// The machine needs Mem >= Base + MCells + 2p + min(m, p) scratch (regions:
// A/B sorted pairs at [s0, s0+p), C designated values at [s1, s1+m'),
// route-back cells at [s2, s2+p), s0 = Base+MCells), and Base >= p because
// the embedded QSM sort uses cells [0, p) as its transfer buffer. Addresses
// must be < 2^23, p < 2^40, and simulated cell values non-negative and
// < 2^40 (they travel packed with their address).
func (pm PRAMm) SimulateCRCWRead(m *qsm.Machine, addr []int) []int64 {
	p := m.P()
	if len(addr) != p {
		panic("emulate: need one address per processor")
	}
	if pm.Base < p {
		panic("emulate: Base must be >= p (cells [0, p) are the sort buffer)")
	}
	mm := m.Cost().Budget(p)
	block := p / mm
	if block < 1 {
		block = 1
	}
	designees := (p + block - 1) / block
	s0 := pm.Base + pm.MCells
	s1 := s0 + p
	s2 := s1 + designees
	if m.Mem() < s2+p {
		panic(fmt.Sprintf("emulate: need Mem >= %d", s2+p))
	}
	for _, a := range addr {
		if a < 0 || a >= pm.MCells {
			panic("emulate: simulated address out of range")
		}
	}

	// Step 1: every processor writes the pair (addr_i, i) into A[i]
	// (requests spread m per step).
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		c.WriteAt(i/mm, s0+i, int64(addr[i])<<40|int64(i))
	})

	// Step 2: sort A by address (pairs are packed with the address in the
	// high bits, so integer order sorts by address then processor). This is
	// the Section 4 QSM(m) sorting; q sorters as in Table 1.
	pairs := make([]int64, p)
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		pairs[i] = c.ReadAt(i/mm, s0+i)
	})
	// Sorter count: the depth-1 columnsort shape (q ≈ (p/2)^{1/3}), so the
	// sort's recursion constant stays fixed as m varies; its per-processor
	// term p/q is subsumed by p/m throughout the theorem's clean
	// m = O(p^{1/3}) regime.
	sorted := problems.ColumnsortQSM(m, pairs, problems.Depth1Sorters(p, p))
	// Publish the sorted array back into B (reusing region s0).
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		c.WriteAt(i/mm, s0+i, sorted[i])
	})

	// Step 3: every processor i reads B[i], learning the pair it is now
	// responsible for.
	pairAt := make([]int64, p)
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		pairAt[i] = c.ReadAt(i/mm, s0+i)
	})

	// Step 4: designated processors (one per block of p/m sorted pairs)
	// read their pair's simulated cell directly and publish (addr, value)
	// into C. Duplicate addresses across designees cost contention at most
	// min(m, p) — within the O(p/m) budget for m = O(√p), per the theorem's
	// m = O(p^{1-ε}) regime.
	valAt := make([]int64, p)
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		if i%block != 0 {
			return
		}
		a := int(pairAt[i] >> 40)
		valAt[i] = c.ReadAt(0, pm.Base+a)
	})
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		if i%block != 0 {
			return
		}
		a := int64(pairAt[i] >> 40)
		c.WriteAt((i/block)/mm, s1+i/block, a<<40|(valAt[i]&((1<<40)-1)))
	})

	// Step 5: central read steps. In step j, processor i with
	// i ≡ j (mod block) reads C[i/block]; if the address there differs from
	// its own pair's address, it reads the simulated cell directly instead
	// (sortedness guarantees at most one direct reader per cell per step).
	cVal := make([]int64, p)
	for j := 0; j < block; j++ {
		jj := j
		m.Phase(func(c *qsm.Ctx) {
			i := c.ID()
			if i%block != jj {
				return
			}
			got := c.ReadAt(0, s1+i/block)
			a := int(pairAt[i] >> 40)
			if int(got>>40) == a {
				cVal[i] = got & ((1 << 40) - 1)
			} else {
				cVal[i] = -1 // needs a direct read
			}
		})
		m.Phase(func(c *qsm.Ctx) {
			i := c.ID()
			if i%block != jj || cVal[i] != -1 {
				return
			}
			cVal[i] = c.ReadAt(0, pm.Base+int(pairAt[i]>>40))
		})
	}

	// Step 6: route each value back to the processor that requested it:
	// processor i holds the value for requester pairAt[i]&mask; write it to
	// cell s2+requester, then every processor reads its own cell.
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		req := int(pairAt[i] & ((1 << 40) - 1))
		c.WriteAt(i/mm, s2+req, cVal[i])
	})
	out := make([]int64, p)
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		out[i] = c.ReadAt(i/mm, s2+i)
	})
	return out
}

// SimulateCRCWWrite simulates one concurrent-write step of the CRCW PRAM(m)
// on the QSM machine: every processor i wants to write val[i] to simulated
// cell addr[i] (addr[i] = -1 for no write), with concurrent writers to one
// cell resolved by a deterministic instance of the Arbitrary rule (the
// largest written value wins). Per Theorem 5.1's observation,
// "sorting the keys allows us to remove duplicates of locations that are
// accessed in the case of writes": the requests are sorted by address and
// only one designated writer per address run performs the physical write,
// so the QSM sees at most one writer per cell (κ = 1 on the simulated
// cells). Costs O(p/m) like the read simulation.
//
// Memory layout and constraints are those of SimulateCRCWRead; writes must
// be non-negative and fit 23 bits of address and 40 bits of value.
func (pm PRAMm) SimulateCRCWWrite(m *qsm.Machine, addr []int, val []int64) {
	p := m.P()
	if len(addr) != p || len(val) != p {
		panic("emulate: need one (addr, val) per processor")
	}
	if pm.Base < p {
		panic("emulate: Base must be >= p (cells [0, p) are the sort buffer)")
	}
	mm := m.Cost().Budget(p)
	s0 := pm.Base + pm.MCells
	if m.Mem() < s0+p {
		panic("emulate: insufficient memory")
	}
	const noReq = int64(1) << 62
	for i, a := range addr {
		if a == -1 {
			continue
		}
		if a < 0 || a >= pm.MCells {
			panic("emulate: simulated address out of range")
		}
		if val[i] < 0 || val[i] >= 1<<40 {
			panic("emulate: value out of 40-bit range")
		}
	}

	// Publish packed (addr, val) requests and sort them; the last pair of
	// each address run — the writer with the largest value — is the
	// designated winner, a deterministic instance of the Arbitrary rule
	// (which permits any winner).
	pairs := make([]int64, p)
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		v := noReq
		if addr[i] != -1 {
			v = int64(addr[i])<<40 | (val[i] & ((1 << 40) - 1))
		}
		c.WriteAt(i/mm, s0+i, v)
	})
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		pairs[i] = c.ReadAt(i/mm, s0+i)
	})
	sorted := problems.ColumnsortQSM(m, pairs, problems.Depth1Sorters(p, p))

	// Designated writers: processor i handles sorted[i]; it writes iff its
	// pair is real and the next pair has a different address (the last of
	// each run — one writer per simulated cell, κ = 1).
	m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		v := sorted[i]
		if v == noReq {
			return
		}
		a := int(v >> 40)
		if i+1 < p && sorted[i+1] != noReq && int(sorted[i+1]>>40) == a {
			return // a later writer to the same address wins
		}
		c.WriteAt(i/mm, pm.Base+a, v&((1<<40)-1))
	})
}
