// Package problems implements the basic problems of the paper's Table 1 —
// parity, summation, list ranking, sorting, leader recognition — together
// with the Section 4.1 h-relation realization on the CRCW PRAM, on each of
// the machine models where the paper states a bound.
//
// Algorithms take a machine and a distributed input and return the computed
// answer; all communication flows through the machine so its simulated
// clock measures the algorithm's model time. Globally-limited machines get
// slot-scheduled injections: when a superstep or phase sends k messages,
// they are spread over a period of max(⌊(1+ε)·k/m⌋, 1) steps with random
// offsets (the per-superstep application of the paper's self-scheduling
// transformation, Section 2 + Theorem 6.2).
package problems

import (
	"parbw/internal/bsp"
	"parbw/internal/collective"
	"parbw/internal/model"
	"parbw/internal/qsm"
	"parbw/internal/xrand"
)

// schedEps is the ε used by the per-superstep slot spreading.
const schedEps = 0.5

// periodFor returns the slot period for spreading k messages on a machine
// with aggregate bandwidth m (1 when the model is locally limited, i.e.
// spreading is irrelevant).
func periodFor(cost model.Cost, k int) int {
	if !cost.Global() {
		return 1
	}
	return model.Period(k, cost.M, schedEps)
}

// slotIn draws a random slot in [0, period).
func slotIn(rng *xrand.Source, period int) int {
	if period <= 1 {
		return 0
	}
	return rng.Intn(period)
}

// blockOf returns processor i's block [lo, hi) of an n-element input
// distributed blockwise over p processors.
func blockOf(i, p, n int) (lo, hi int) {
	per := (n + p - 1) / p
	lo = i * per
	hi = lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// foldLocalBSP folds each processor's input block locally (charging the
// work) and reduces the per-processor partials with the collective tree,
// returning the total.
func foldLocalBSP(m *bsp.Machine, input []int64, op collective.Op, id int64) int64 {
	p := m.P()
	locals := make([]int64, p)
	m.Superstep(func(c *bsp.Ctx) {
		lo, hi := blockOf(c.ID(), p, len(input))
		acc := id
		for _, v := range input[lo:hi] {
			acc = op(acc, v)
		}
		c.Charge(hi - lo)
		locals[c.ID()] = acc
	})
	return collective.ReduceBSP(m, locals, op)
}

func foldLocalQSM(m *qsm.Machine, input []int64, op collective.Op, id int64) int64 {
	p := m.P()
	locals := make([]int64, p)
	m.Phase(func(c *qsm.Ctx) {
		lo, hi := blockOf(c.ID(), p, len(input))
		acc := id
		for _, v := range input[lo:hi] {
			acc = op(acc, v)
		}
		c.Charge(hi - lo)
		locals[c.ID()] = acc
	})
	return collective.ReduceQSM(m, locals, op)
}

// SummationBSP sums n input values (distributed blockwise over the
// processors) on a BSP machine, returning the total (held at processor 0).
// Table 1 row 3: Θ(L·lg n/lg(L/g)) on the BSP(g) versus
// O(L·lg m/lg L + n/m + L) on the BSP(m).
func SummationBSP(m *bsp.Machine, input []int64) int64 {
	return foldLocalBSP(m, input, collective.Sum, 0)
}

// ParityBSP computes the parity of n input bits on a BSP machine.
func ParityBSP(m *bsp.Machine, input []int64) int64 {
	return foldLocalBSP(m, input, collective.Xor, 0) & 1
}

// SummationQSM sums n input values on a QSM machine. Table 1 row 3:
// Θ(lg m + n/m) on the QSM(m) versus Ω(g·lg n/lg lg n) on the QSM(g).
func SummationQSM(m *qsm.Machine, input []int64) int64 {
	return foldLocalQSM(m, input, collective.Sum, 0)
}

// ParityQSM computes the parity of n input bits on a QSM machine.
func ParityQSM(m *qsm.Machine, input []int64) int64 {
	return foldLocalQSM(m, input, collective.Xor, 0) & 1
}
