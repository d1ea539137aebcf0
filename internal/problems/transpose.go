package problems

import (
	"parbw/internal/bsp"
	"parbw/internal/sched"
)

// MatrixTransposeBSP transposes an N×N matrix distributed one row per
// processor (p = N), the flagship total-exchange application of the paper's
// Section 3 ("it is used in matrix transposition, two-dimensional Fourier
// Transform, ..."): element (i, j) moves from processor i to processor j,
// a balanced (p−1)-relation routed with the scheduled unbalanced send
// (message counts are oblivious, so n is known and τ = 0). Returns the
// transposed rows.
//
// Cost: Θ(g·p) per processor-row on the BSP(g) versus Θ(p²/m + p) on the
// BSP(m) — equal at matched aggregate bandwidth m = p/g, since the traffic
// is perfectly balanced (this is the workload where local and global
// limitations coincide; the harness's totalexchange example shows the skew
// that separates them).
func MatrixTransposeBSP(m *bsp.Machine, rows [][]int64) [][]int64 {
	p := m.P()
	if len(rows) != p {
		panic("problems: need one matrix row per processor")
	}
	for _, r := range rows {
		if len(r) != p {
			panic("problems: matrix must be p×p")
		}
	}
	out := make([][]int64, p)
	for i := range out {
		out[i] = make([]int64, p)
		out[i][i] = rows[i][i] // diagonal stays local
	}
	plan := make(sched.Plan, p)
	n := 0
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				continue
			}
			plan[i] = append(plan[i], bsp.Msg{Dst: int32(j), A: rows[i][j], B: int64(i)})
			n++
		}
	}
	if n > 0 {
		sched.UnbalancedSend(m, plan, sched.Options{KnownN: n})
	}
	m.Superstep(func(c *bsp.Ctx) {
		j := c.ID()
		for _, msg := range c.Recv() {
			out[j][msg.B] = msg.A
			c.Charge(1)
		}
	})
	return out
}
