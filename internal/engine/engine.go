// Package engine is the shared superstep core under every machine simulator
// in this repository. The BSP, QSM, and PRAM machines all execute the same
// abstract loop — reset per-processor contexts, fan the per-processor
// programs out over a bounded worker pool, run a model-specific merge that
// validates schedules and computes the step's cost, then commit: advance the
// simulated clock and notify observers.
// Before this package existed that loop was implemented once per machine;
// Core implements it exactly once, parameterized by the machine's native
// per-step Stats type S and its merge strategy.
//
// Core also owns the recycled scratch buffers the merge strategies share
// (the per-step injection histogram and a per-processor ledger) and the
// observability layer of observer.go: normalized per-step callbacks to the
// observers the machine was constructed with, plus cheap process-wide
// atomic counters that aggregate across every machine in the process
// (surfaced by `bandsim serve` on /statsz). Core keeps no per-step record
// of its own: a step is seen through an observer or through the native
// Stats value Step returns.
//
// The merge strategy returns both the machine's native Stats value and a
// normalized StepStats view; Core returns the former to the machine and
// publishes the latter. Costs are computed entirely inside the merge
// strategy, so moving a machine onto Core cannot change any simulated time:
// Core only adds the returned cost to the clock, exactly as the per-machine
// loops did.
package engine

import (
	"slices"

	"parbw/internal/model"
	"parbw/internal/workpool"
)

// Core is the generic superstep driver. S is the machine's native per-step
// statistics type (bsp.Stats, qsm.Stats, pram.Stats). Methods must be called
// from a single driver goroutine, mirroring the machines' contract.
type Core[S any] struct {
	label string
	p     int
	pool  *workpool.Pool

	time  model.Time
	steps int

	hist    []int // recycled per-step injection/request histogram
	ledger  []int // recycled per-processor counter, length p
	offsets []int // recycled per-processor counter, length p (slab.go)
	grid    []int // recycled chunk×destination count matrix (slab.go)

	observers []Observer
}

// NewCore constructs a Core for a machine with p simulated processors.
// label names the machine family in StepStats ("bsp", "qsm", "pram");
// workers bounds host parallelism (<= 0 selects GOMAXPROCS).
func NewCore[S any](label string, p, workers int) *Core[S] {
	return &Core[S]{
		label: label,
		p:     p,
		pool:  workpool.New(workers),
	}
}

// P returns the simulated processor count.
func (c *Core[S]) P() int { return c.p }

// Label returns the machine-family label reported in StepStats.
func (c *Core[S]) Label() string { return c.label }

// Time returns the accumulated simulated time.
func (c *Core[S]) Time() model.Time { return c.time }

// Steps returns the number of supersteps committed.
func (c *Core[S]) Steps() int { return c.steps }

// ChargeTime adds t units of simulated time outside any superstep.
func (c *Core[S]) ChargeTime(t model.Time) { c.time += t }

// Attach registers an observer for this machine's steps. Observers run in
// attachment order.
func (c *Core[S]) Attach(obs Observer) {
	if obs != nil {
		c.observers = append(c.observers, obs)
	}
}

// Hist returns the recycled histogram buffer resized and zeroed to n slots.
// The returned slice is owned by the Core and valid until the next call.
func (c *Core[S]) Hist(n int) []int {
	if cap(c.hist) < n {
		c.hist = make([]int, n)
	}
	h := c.hist[:n]
	for i := range h {
		h[i] = 0
	}
	return h
}

// Ledger returns the recycled per-processor counter buffer (length P),
// zeroed. The returned slice is owned by the Core and valid until the next
// call.
func (c *Core[S]) Ledger() []int {
	if c.ledger == nil {
		c.ledger = make([]int, c.p)
	}
	for i := range c.ledger {
		c.ledger[i] = 0
	}
	return c.ledger
}

// Step drives one superstep: body runs once per contiguous processor chunk
// on the worker pool (reset each chunk processor's state and execute its
// program — chunk boundaries follow ChunkPlan, so live goroutine and
// closure state is O(cores), never O(p)), then merge — the model-specific
// strategy — validates schedules, routes traffic, and prices the step,
// returning the machine's native Stats together with the normalized
// StepStats view. Core commits the result — clock, counters, observers —
// and returns the native Stats. A panicking processor program panics Step
// on the driver goroutine, with the lowest-numbered chunk's value as a
// serial run would.
func (c *Core[S]) Step(body func(lo, hi int), merge func() (S, StepStats)) S {
	c.pool.ForChunks(c.p, body)
	st, view := merge()
	view.Machine = c.label
	view.Index = c.steps
	c.time += view.Cost
	c.steps++
	countStep(view)
	for _, obs := range c.observers {
		obs.OnStep(view)
	}
	return st
}

// ResetClock clears time and step count. Scratch buffers and observers are
// preserved, matching the machines' Reset semantics (processor RNG state
// lives in the machines).
func (c *Core[S]) ResetClock() {
	c.time = 0
	c.steps = 0
}

// CheckSchedule validates a per-processor injection schedule: items are
// sorted in place by start slot, and any two items whose [slot, slot+width)
// intervals overlap make the schedule invalid — the globally-limited models
// permit at most one injection per processor per step. fail is called with
// the offending slot and must not return (the machines panic with their
// model-specific message).
func CheckSchedule[T any](items []T, slot func(T) int, width func(T) int, fail func(slot int)) {
	if len(items) < 2 {
		return
	}
	if len(items) <= 32 {
		insertionSortBySlot(items, slot)
	} else {
		slices.SortFunc(items, func(a, b T) int { return slot(a) - slot(b) })
	}
	prevEnd := -1
	for _, it := range items {
		s := slot(it)
		if s < prevEnd {
			fail(s)
		}
		prevEnd = s + width(it)
	}
}

// insertionSortBySlot sorts items by slot without allocating. Per-processor
// schedules are short (a handful of sends), where insertion sort beats the
// generic sort for both time and allocations in the merge hot path.
func insertionSortBySlot[T any](items []T, slot func(T) int) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && slot(items[j]) < slot(items[j-1]); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}
