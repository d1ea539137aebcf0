// Package collective implements the communication primitives that the
// paper's algorithms are built from — broadcast, reduction, prefix sums and
// one-to-all personalized communication — on all four machine models:
// BSP(g), BSP(m), QSM(g) and QSM(m).
//
// Each primitive picks the algorithm appropriate to the machine's cost
// model:
//
//   - BSP(g): degree-⌈L/g⌉ message trees, cost Θ(L·lg p / lg(L/g)) for
//     broadcast and reduction.
//   - BSP(m): an L-ary tree over the first min(m, p) processors followed by
//     an m-wide fan-out/fan-in stage, giving the paper's
//     O(L·lg m/lg L + p/m + L) bound; all sends are slot-scheduled so at
//     most m messages are injected per step.
//   - QSM(g): degree-g concurrent-read trees, cost Θ(g·lg p / lg g).
//   - QSM(m): doubling through shared memory with requests spread over
//     ⌈k/m⌉ steps, cost Θ(lg m + p/m).
//
// The package also provides the ternary broadcast of Section 4.2, which
// exploits non-receipt of messages to broadcast one bit on the BSP(g) in
// g·⌈log₃ p⌉ time when L <= g.
//
// All functions are drivers: they issue supersteps/phases on the machine and
// advance its simulated clock. QSM primitives require machine memory of at
// least 2p words and use it as scratch (contents are overwritten).
package collective

// Op is an associative binary reduction operator.
type Op func(a, b int64) int64

// Sum is addition.
func Sum(a, b int64) int64 { return a + b }

// Xor is bitwise exclusive-or (parity when values are bits).
func Xor(a, b int64) int64 { return a ^ b }

// treeDegree returns the fan-out used by local-model trees: ⌈L/g⌉ for the
// BSP(g) (so that a superstep's g·d send cost stays within the latency
// floor L), never below 2.
func treeDegree(l, g int) int {
	d := l / g
	if d < 2 {
		d = 2
	}
	return d
}
