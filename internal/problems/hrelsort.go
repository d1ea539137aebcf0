package problems

import (
	"parbw/internal/pram"
)

// HRelationRadixCRCW is the Section 4.1 sort-based h-relation realization:
// "processor i writes its x_i messages to locations (i−1)x̄+1 through i·x̄
// in an array of size x̄·p ... this array is then integer chain sorted by
// destination ... each destination processor can now scan its list".
//
// The paper's chain sort runs in O(lg lg p) [Bhatt et al. 1991]; that
// algorithm is a research artifact in its own right, so this implementation
// substitutes a stable LSD radix sort over the destination bits built on
// PRAM prefix sums — O(lg p · lg(x̄p)) steps instead of O(lg lg p + h). The
// substitution preserves the route's character (sort once, then scan) and
// the comparison experiment against the contention-resolution realization
// (O(h) rounds) shows the crossover the two §4.1 algorithms trade on:
// sorting wins for large h, contention resolution for small h.
//
// The machine must have P >= x̄·p processors and Mem >= 3·x̄·p + 4 cells.
// Returns per-destination messages and the machine steps used.
func HRelationRadixCRCW(m *pram.Machine, plan [][]HRelationMsg) ([][]HRelationMsg, int) {
	p := len(plan)
	if p == 0 {
		return nil, 0
	}
	if m.Mode() == pram.EREW {
		panic("problems: HRelationRadixCRCW needs a concurrent-capable machine")
	}
	xbar := 0
	for _, msgs := range plan {
		if len(msgs) > xbar {
			xbar = len(msgs)
		}
		for _, msg := range msgs {
			if msg.Dst < 0 || msg.Dst >= p {
				panic("problems: invalid destination")
			}
			if msg.Val < 0 || msg.Val >= 1<<40 {
				panic("problems: value out of 40-bit range")
			}
		}
	}
	if xbar == 0 {
		return make([][]HRelationMsg, p), 0
	}
	n := xbar * p
	if m.P() < n {
		panic("problems: HRelationRadixCRCW needs P >= x̄·p")
	}
	if m.Mem() < 3*n {
		panic("problems: HRelationRadixCRCW needs Mem >= 3·x̄·p")
	}
	const empty = int64(1) << 62 // sorts after every real key

	// Region layout: A = [0, n) keys; B = [n, 2n) scatter buffer;
	// C = [2n, 3n) prefix scratch.
	stepsBefore := m.Steps()

	// Step 1: every processor writes its messages into its block (x̄
	// rounds, one write per processor per step; pad with empties).
	for j := 0; j < xbar; j++ {
		jj := j
		m.Step(func(c *pram.Ctx) {
			i := c.ID()
			if i >= p {
				return
			}
			v := empty
			if jj < len(plan[i]) {
				msg := plan[i][jj]
				v = int64(msg.Dst)<<40 | msg.Val
			}
			c.Write(i*xbar+jj, v)
		})
	}

	// Step 2: stable LSD radix sort on the destination bits (plus the
	// empty bit so padding sinks to the end).
	bits := 0
	for v := p - 1; v > 0; v >>= 1 {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	keyBit := func(v int64, b int) int64 {
		if b == bits { // the "empty" bit
			if v == empty {
				return 1
			}
			return 0
		}
		return (v >> (40 + b)) & 1
	}
	cur := make([]int64, n)
	for b := 0; b <= bits; b++ {
		bb := b
		// Read the array and the zero-indicator into C.
		m.Step(func(c *pram.Ctx) {
			s := c.ID()
			if s >= n {
				return
			}
			cur[s] = c.Read(s)
		})
		m.Step(func(c *pram.Ctx) {
			s := c.ID()
			if s >= n {
				return
			}
			ind := int64(1) - keyBit(cur[s], bb)
			c.Write(2*n+s, ind)
		})
		zeros := pram.PrefixSums(m, 2*n, n, n) // exclusive ranks of the 0-keys
		rank0 := make([]int64, n)
		m.Step(func(c *pram.Ctx) {
			s := c.ID()
			if s >= n {
				return
			}
			rank0[s] = c.Read(2*n + s)
		})
		// Ones rank: position among 1-keys = s − rank0[s] (stable).
		m.Step(func(c *pram.Ctx) {
			s := c.ID()
			if s >= n {
				return
			}
			var target int64
			if keyBit(cur[s], bb) == 0 {
				target = rank0[s]
			} else {
				target = zeros + int64(s) - rank0[s]
			}
			c.Write(n+int(target), cur[s])
		})
		// Copy B back to A.
		tmp := make([]int64, n)
		m.Step(func(c *pram.Ctx) {
			s := c.ID()
			if s >= n {
				return
			}
			tmp[s] = c.Read(n + s)
		})
		m.Step(func(c *pram.Ctx) {
			s := c.ID()
			if s >= n {
				return
			}
			c.Write(s, tmp[s])
		})
	}

	// Step 3: destinations scan their (contiguous) runs. The scan itself is
	// the O(h) read loop of the paper; results are assembled by the driver
	// from the sorted array, with each destination's reads charged.
	out := make([][]HRelationMsg, p)
	final := make([]int64, n)
	m.Step(func(c *pram.Ctx) {
		s := c.ID()
		if s >= n {
			return
		}
		final[s] = c.Read(s)
	})
	for _, v := range final {
		if v == empty {
			break // empties are sorted to the end
		}
		d := int(v >> 40)
		out[d] = append(out[d], HRelationMsg{Dst: d, Val: v & ((1 << 40) - 1)})
	}
	return out, m.Steps() - stepsBefore
}
