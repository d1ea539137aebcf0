package sched

import (
	"fmt"
	"slices"

	"parbw/internal/collective"
	"parbw/internal/model"
	"parbw/internal/qsm"
)

// The QSM(m) counterparts of the Section 6.1 schedulers — the paper states
// its routing results for the BSP(m) and notes "the same techniques can be
// used to obtain similar results for the QSM(m), an exercise left to the
// reader". Here the exercise is carried out: each processor i holds x_i
// shared-memory requests (writes to distinct cells, the shared-memory
// analogue of distinct point-to-point messages); requests are injected one
// per processor per step under the aggregate limit of m requests per step,
// with the same cyclic random schedule and the same
// max((1+ε)n/m, x̄, κ) + τ completion guarantee.

// QSMWrite is one pending shared-memory write.
type QSMWrite struct {
	Addr int
	Val  int64
}

// QSMPlan assigns each processor its pending writes.
type QSMPlan [][]QSMWrite

// Counts returns per-processor request counts and the total.
func (p QSMPlan) Counts(procs int) (x []int, n int) {
	x = make([]int, procs)
	for i, ws := range p {
		x[i] = len(ws)
		n += len(ws)
	}
	return x, n
}

// QSMResult reports a completed QSM scheduling run.
type QSMResult struct {
	Time   model.Time // total simulated time including τ
	Tau    model.Time // time to compute and broadcast n
	Phase  qsm.Stats  // stats of the write phase
	N      int
	XBar   int
	Period int
}

// checkQSMPlan validates shape and addresses and returns each processor's
// request count. Duplicate detection sorts a reused address scratch per
// processor instead of filling a map per phase.
func checkQSMPlan(m *qsm.Machine, plan QSMPlan) []int {
	if len(plan) != m.P() {
		panic(fmt.Sprintf("sched: QSM plan has %d rows for %d processors", len(plan), m.P()))
	}
	var addrs []int // reused across processors
	for i, ws := range plan {
		addrs = addrs[:0]
		for _, w := range ws {
			if w.Addr < 0 || w.Addr >= m.Mem() {
				panic(fmt.Sprintf("sched: proc %d write to invalid address %d", i, w.Addr))
			}
			addrs = append(addrs, w.Addr)
		}
		slices.Sort(addrs)
		for k := 1; k < len(addrs); k++ {
			if addrs[k] == addrs[k-1] {
				panic(fmt.Sprintf("sched: proc %d writes address %d twice in one phase", i, addrs[k]))
			}
		}
	}
	x, _ := plan.Counts(m.P())
	return x
}

// learnQSM validates plan, makes n known to every processor (Options.KnownN
// or the prefix-sum/broadcast protocol on the QSM, charging τ) and returns
// the request counts, τ and the period T = max(⌊(1+ε)n/m⌋, 1). A QSM(g) has no
// aggregate limit, so there the schedule degenerates to m = p.
func learnQSM(m *qsm.Machine, plan QSMPlan, opt Options) (x []int, tau model.Time, T int) {
	x = checkQSMPlan(m, plan)
	n := opt.KnownN
	if n <= 0 {
		counts := make([]int64, len(x))
		for i, v := range x {
			counts[i] = int64(v)
		}
		before := m.Time()
		n = int(collective.SumAllQSM(m, counts, collective.Sum))
		tau = m.Time() - before
	}
	return x, tau, model.Period(n, m.Cost().Budget(m.P()), opt.eps())
}

// writeQSM is the one write phase every QSM scheduler runs, the QSM
// counterpart of send: start(c, x) returns the first step of a processor
// holding x > 0 requests and its wrap period (0 = no wrap), and request k
// goes at start + k, taken mod wrap when wrap > 0.
func writeQSM(m *qsm.Machine, plan QSMPlan, x []int, tau model.Time, T int,
	start func(c *qsm.Ctx, x int) (slot, wrap int)) QSMResult {
	st := m.Phase(func(c *qsm.Ctx) {
		i := c.ID()
		if x[i] == 0 {
			return
		}
		slot, wrap := start(c, x[i])
		for k, w := range plan[i] {
			s := slot + k
			if wrap > 0 {
				s %= wrap
			}
			c.WriteAt(s, w.Addr, w.Val)
		}
	})
	n, xb := 0, 0
	for _, v := range x {
		n += v
		xb = max(xb, v)
	}
	return QSMResult{
		Time:   st.Cost + tau,
		Tau:    tau,
		Phase:  st,
		N:      n,
		XBar:   xb,
		Period: T,
	}
}

// UnbalancedSendQSM is Unbalanced-Send on a QSM machine: processor i with
// x_i <= T picks a uniform phase j_i in the period T = max(⌊(1+ε)n/m⌋, 1) and
// issues its requests at steps (j_i + k) mod T; an overloaded processor
// issues consecutively from step 0.
func UnbalancedSendQSM(m *qsm.Machine, plan QSMPlan, opt Options) QSMResult {
	x, tau, T := learnQSM(m, plan, opt)
	return writeQSM(m, plan, x, tau, T, func(c *qsm.Ctx, x int) (int, int) {
		if x > T {
			return 0, 0
		}
		return c.RNG().Intn(T), T
	})
}

// UnbalancedConsecutiveSendQSM issues all of a processor's requests
// consecutively from a random start (Theorem 6.3's variant on the QSM).
func UnbalancedConsecutiveSendQSM(m *qsm.Machine, plan QSMPlan, opt Options) QSMResult {
	x, tau, T := learnQSM(m, plan, opt)
	return writeQSM(m, plan, x, tau, T, func(c *qsm.Ctx, x int) (int, int) {
		if x > T {
			return 0, 0
		}
		return c.RNG().Intn(T), 0
	})
}

// NaiveSendQSM issues every processor's requests from step 0.
func NaiveSendQSM(m *qsm.Machine, plan QSMPlan) QSMResult {
	return writeQSM(m, plan, checkQSMPlan(m, plan), 0, 0,
		func(*qsm.Ctx, int) (int, int) { return 0, 0 })
}

// OptimalOfflineQSM returns the offline bound max(⌈n/m⌉, x̄, κ) for a run
// whose maximum per-cell contention was kappa.
func (r QSMResult) OptimalOfflineQSM(m int) model.Time {
	t := float64((r.N + m - 1) / m)
	if f := float64(r.XBar); f > t {
		t = f
	}
	if f := float64(r.Phase.Kappa); f > t {
		t = f
	}
	return t
}
