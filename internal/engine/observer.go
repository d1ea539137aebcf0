// Observability layer of the superstep engine: normalized per-step records,
// per-machine observer callbacks given at construction, and cheap atomic
// counters aggregated across every machine in the process.
package engine

import (
	"sync/atomic"

	"parbw/internal/model"
)

// StepStats is the normalized record of one committed superstep, common to
// every machine family. Machine-specific quantities map onto it as follows:
//
//	BSP:  W = max work, H = max(h_send, h_recv), N = total flits sent,
//	      Steps/MaxSlot/Overload/CM from the injection histogram.
//	QSM:  W = max work, H = max per-processor max(reads, writes), N = total
//	      requests, Steps/MaxSlot/Overload/CM from the request histogram.
//	PRAM: W = 0 (unit-cost steps), H = MaxSlot = κ (per-cell contention),
//	      N = total shared-memory accesses, Steps = 1.
type StepStats struct {
	Machine  string     // machine family: "bsp", "qsm", "pram"
	Index    int        // 0-based superstep index within the machine
	W        int        // maximum local work over processors
	H        int        // maximum per-processor traffic
	N        int        // total traffic units moved (flits / requests / accesses)
	Steps    int        // injection steps spanned (max slot + 1)
	MaxSlot  int        // maximum per-step load m_t
	Overload int        // steps with m_t > m (globally-limited models only)
	CM       model.Time // c_m = Σ_t f_m(m_t) (globally-limited models only)
	Cost     model.Time // simulated time charged for the step
	// Hist is the per-step load histogram snapshot. It aliases an
	// engine-owned recycled buffer: valid only inside the observer callback
	// (copy it to keep it), and nil for machines without slot schedules.
	Hist []int
}

// Observer receives a callback after every committed superstep of the
// machine it was given to (the Observer field of bsp.Config, qsm.Config and
// pram.Config); a run that wants to see its machines passes its observer to
// each one it constructs. Callbacks run on the
// machine's driver goroutine; they must not call back into the machine and
// should be cheap — a slow observer stalls the simulation.
type Observer interface {
	OnStep(st StepStats)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(st StepStats)

// OnStep calls f.
func (f ObserverFunc) OnStep(st StepStats) { f(st) }

// Counters is a snapshot of the process-wide engine counters, aggregated
// over every machine of every family since process start. `bandsim serve`
// reports them on /statsz.
type Counters struct {
	Supersteps  uint64 `json:"supersteps"`    // supersteps committed
	Messages    uint64 `json:"messages"`      // traffic units routed (Σ StepStats.N)
	MaxSlotLoad int64  `json:"max_slot_load"` // maximum per-step load ever seen
	Overloads   uint64 `json:"overloads"`     // overloaded steps (Σ StepStats.Overload)
}

var global struct {
	supersteps atomic.Uint64
	messages   atomic.Uint64
	maxSlot    atomic.Int64
	overloads  atomic.Uint64
}

// countStep folds one committed step into the process-wide counters.
func countStep(st StepStats) {
	global.supersteps.Add(1)
	if st.N > 0 {
		global.messages.Add(uint64(st.N))
	}
	if st.Overload > 0 {
		global.overloads.Add(uint64(st.Overload))
	}
	for {
		cur := global.maxSlot.Load()
		if int64(st.MaxSlot) <= cur {
			break
		}
		if global.maxSlot.CompareAndSwap(cur, int64(st.MaxSlot)) {
			break
		}
	}
}

// GlobalCounters returns a snapshot of the process-wide engine counters.
func GlobalCounters() Counters {
	return Counters{
		Supersteps:  global.supersteps.Load(),
		Messages:    global.messages.Load(),
		MaxSlotLoad: global.maxSlot.Load(),
		Overloads:   global.overloads.Load(),
	}
}
