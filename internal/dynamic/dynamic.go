// Package dynamic implements the Section 6.2 dynamic unbalanced routing
// problem under the Adversarial Queuing Theory model of Borodin et al.:
// an adversary injects point-to-point messages over an infinite time line,
// constrained by a window size w, a global arrival rate α (at most ⌈αw⌉
// messages per w consecutive steps) and a local arrival rate β (at most
// ⌈βw⌉ of them from any one source or to any one destination).
//
// Routers:
//
//   - RunBSPgInterval is Theorem 6.5's BSP(g) router: the time line is cut
//     into intervals of max(g·⌈w/g⌉, L); each interval's arrivals are routed
//     in the next interval as one h-relation. It is stable iff β <= 1/g.
//
//   - RunAlgorithmB is Theorem 6.7's BSP(m) router: each window's arrivals
//     are sent with a static scheduler (Unbalanced-Send with n = ⌈αw⌉
//     known), starting at the later of the next window boundary and the
//     completion of the previous batch. It is stable for α up to ~m and β
//     up to ~1 — a factor g more local traffic than any locally-limited
//     router can absorb.
//
// The simulation keeps two clocks: the arrival clock (discrete unit steps,
// the adversary's time line) and the machine's simulated-time clock, which
// measures how long each batch's transmission takes. Backlog is sampled at
// window boundaries; an execution "looks stable" when the backlog in the
// second half of the run does not outgrow the first half.
package dynamic

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/model"
	"parbw/internal/sched"
	"parbw/internal/xrand"
)

// Arrival is one injected message.
type Arrival struct {
	Src, Dst int
}

// Adversary generates the arrivals of each time step.
type Adversary interface {
	// Step returns the messages injected at time step t.
	Step(t int) []Arrival
}

// Limits is the (w, α, β) constraint envelope.
type Limits struct {
	W     int     // window size
	Alpha float64 // global arrival rate
	Beta  float64 // local arrival rate (per source and per destination)
}

// MaxPerWindow returns ⌈αw⌉.
func (l Limits) MaxPerWindow() int { return ceilMul(l.Alpha, l.W) }

// MaxLocalPerWindow returns ⌈βw⌉.
func (l Limits) MaxLocalPerWindow() int { return ceilMul(l.Beta, l.W) }

func ceilMul(r float64, w int) int {
	v := int(r * float64(w))
	if float64(v) < r*float64(w) {
		v++
	}
	return v
}

// Validate checks that the adversary respects the limits over the horizon
// [0, steps): every window of W steps (every sliding window, or only the
// aligned ones when aligned is true — bursty adversaries meet the model
// only in aligned form) carries at most ⌈αW⌉ messages in total and ⌈βW⌉
// per source and destination. Returns an error naming the first violated
// constraint.
func Validate(adv Adversary, l Limits, p, steps int, aligned bool) error {
	perStep := make([][]Arrival, steps)
	for t := 0; t < steps; t++ {
		perStep[t] = adv.Step(t)
		for _, a := range perStep[t] {
			if a.Src < 0 || a.Src >= p || a.Dst < 0 || a.Dst >= p {
				return fmt.Errorf("dynamic: arrival %+v out of range at t=%d", a, t)
			}
		}
	}
	stride := 1
	if aligned {
		stride = l.W
	}
	for lo := 0; lo+l.W <= steps; lo += stride {
		total := 0
		src := map[int]int{}
		dst := map[int]int{}
		for t := lo; t < lo+l.W; t++ {
			for _, a := range perStep[t] {
				total++
				src[a.Src]++
				dst[a.Dst]++
			}
		}
		if total > l.MaxPerWindow() {
			return fmt.Errorf("dynamic: window [%d,%d) carries %d > ⌈αw⌉ = %d", lo, lo+l.W, total, l.MaxPerWindow())
		}
		for s, n := range src {
			if n > l.MaxLocalPerWindow() {
				return fmt.Errorf("dynamic: window [%d,%d) src %d sends %d > ⌈βw⌉ = %d", lo, lo+l.W, s, n, l.MaxLocalPerWindow())
			}
		}
		for d, n := range dst {
			if n > l.MaxLocalPerWindow() {
				return fmt.Errorf("dynamic: window [%d,%d) dst %d receives %d > ⌈βw⌉ = %d", lo, lo+l.W, d, n, l.MaxLocalPerWindow())
			}
		}
	}
	return nil
}

// Result reports a dynamic routing run.
type Result struct {
	Windows      int
	Backlog      []int     // pending messages at each window boundary
	ServiceTimes []float64 // per batch: completion time − batch close time
	MaxBacklog   int
	TotalSent    int
}

// MeanService returns the average batch service time.
func (r Result) MeanService() float64 {
	if len(r.ServiceTimes) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range r.ServiceTimes {
		s += v
	}
	return s / float64(len(r.ServiceTimes))
}

// LooksStable compares backlog between the two halves of the run: a stable
// system's backlog does not trend upward.
func (r Result) LooksStable() bool {
	h := len(r.Backlog) / 2
	if h == 0 {
		return true
	}
	first, second := 0.0, 0.0
	for i, b := range r.Backlog {
		if i < h {
			first += float64(b)
		} else {
			second += float64(b)
		}
	}
	first /= float64(h)
	second /= float64(len(r.Backlog) - h)
	return second <= 2*first+3
}

// collectWindow refills plan, one row per source, with the adversary's
// arrivals for window i (steps [i·w, (i+1)·w)) and returns their count. The
// rows are reset to [:0] and keep their capacity, so one plan serves every
// window; sched.UnbalancedSend copies what it needs and keeps no reference.
func collectWindow(plan sched.Plan, adv Adversary, w, i int) int {
	for s := range plan {
		plan[s] = plan[s][:0]
	}
	n := 0
	for t := i * w; t < (i+1)*w; t++ {
		for _, a := range adv.Step(t) {
			plan[a.Src] = append(plan[a.Src], bsp.Msg{Dst: int32(a.Dst), A: int64(t)})
			n++
		}
	}
	return n
}

// RunAlgorithmB routes the adversary's traffic on a globally-limited
// machine per Theorem 6.7: window i's batch is sent with Unbalanced-Send
// (KnownN = ⌈αw⌉, so τ = 0) starting at the later of the window's close and
// the previous batch's completion.
func RunAlgorithmB(m *bsp.Machine, adv Adversary, l Limits, windows int, eps float64) Result {
	if !m.Cost().Global() {
		panic("dynamic: RunAlgorithmB needs a globally-limited machine")
	}
	p := m.P()
	res := Result{Windows: windows}
	free := 0.0 // machine-time point at which the sender is next free
	var closed []int
	var completed []float64
	plan := make(sched.Plan, p)
	for i := 0; i < windows; i++ {
		n := collectWindow(plan, adv, l.W, i)
		closeAt := float64((i + 1) * l.W)
		start := closeAt
		if free > start {
			start = free
		}
		if n > 0 {
			r := sched.UnbalancedSend(m, plan, sched.Options{Eps: eps, KnownN: l.MaxPerWindow()})
			free = start + r.Time
			res.TotalSent += n
		} else {
			free = start
		}
		closed = append(closed, n)
		completed = append(completed, free)
		res.ServiceTimes = append(res.ServiceTimes, free-closeAt)
		// Backlog at this window boundary: arrivals from all closed windows
		// whose batches have not completed by closeAt.
		pending := 0
		for j := 0; j <= i; j++ {
			if completed[j] > closeAt {
				pending += closed[j]
			}
		}
		res.Backlog = append(res.Backlog, pending)
		if pending > res.MaxBacklog {
			res.MaxBacklog = pending
		}
	}
	return res
}

// RunBSPgInterval routes the adversary's traffic on a locally-limited
// machine per Theorem 6.5: intervals of size max(g·⌈w/g⌉, L), each routed in
// one plain superstep during the next interval.
func RunBSPgInterval(m *bsp.Machine, adv Adversary, l Limits, windows int) Result {
	if m.Cost().Kind != model.KindBSPg {
		panic("dynamic: RunBSPgInterval needs a BSP(g) machine")
	}
	p := m.P()
	g := m.Cost().G
	interval := g * ((l.W + g - 1) / g)
	if m.Cost().L > interval {
		interval = m.Cost().L
	}
	res := Result{Windows: windows}
	free := 0.0
	var closed []int
	var completed []float64
	for i := 0; i < windows; i++ {
		plan := make(sched.Plan, p)
		n := 0
		for t := i * interval; t < (i+1)*interval; t++ {
			for _, a := range adv.Step(t) {
				plan[a.Src] = append(plan[a.Src], bsp.Msg{Dst: int32(a.Dst), A: int64(t)})
				n++
			}
		}
		closeAt := float64((i + 1) * interval)
		start := closeAt
		if free > start {
			start = free
		}
		if n > 0 {
			r := sched.NaiveSend(m, plan) // one h-relation superstep
			free = start + r.Time
			res.TotalSent += n
		} else {
			free = start
		}
		closed = append(closed, n)
		completed = append(completed, free)
		res.ServiceTimes = append(res.ServiceTimes, free-closeAt)
		pending := 0
		for j := 0; j <= i; j++ {
			if completed[j] > closeAt {
				pending += closed[j]
			}
		}
		res.Backlog = append(res.Backlog, pending)
		if pending > res.MaxBacklog {
			res.MaxBacklog = pending
		}
	}
	return res
}

// --- Adversaries ---

// UniformAdversary injects at global rate Alpha with uniformly random
// sources and destinations (each respecting β by round-robin offsets).
type UniformAdversary struct {
	P    int
	L    Limits
	rng  *xrand.Source
	mem  map[int][]Arrival // arrivals keyed by absolute step
	done map[int]bool      // windows already generated
}

// NewUniformAdversary builds a deterministic uniform adversary.
func NewUniformAdversary(p int, l Limits, seed uint64) *UniformAdversary {
	return &UniformAdversary{P: p, L: l, rng: xrand.New(seed),
		mem: map[int][]Arrival{}, done: map[int]bool{}}
}

// Step returns the arrivals at step t. Per window of W steps it injects
// exactly ⌈αW⌉−1 messages (one under the cap, so sliding windows stay
// legal), spread evenly over the window, with sources and destinations
// walking a random permutation so no processor exceeds ⌈βW⌉.
func (a *UniformAdversary) Step(t int) []Arrival {
	win := t / a.L.W
	if !a.done[win] {
		a.done[win] = true
		total := a.L.MaxPerWindow() - 1
		if total < 0 {
			total = 0
		}
		perLocal := a.L.MaxLocalPerWindow()
		arr := make([][]Arrival, a.L.W)
		srcPerm := a.rng.Perm(a.P)
		dstPerm := a.rng.Perm(a.P)
		srcCount := make([]int, a.P)
		dstCount := make([]int, a.P)
		si, di := 0, 0
		for k := 0; k < total; k++ {
			// Next source/destination with remaining local budget; if the
			// per-processor budgets are exhausted the remaining global
			// budget is simply left unused.
			tries := 0
			for srcCount[srcPerm[si%a.P]] >= perLocal && tries < a.P {
				si++
				tries++
			}
			tries = 0
			for dstCount[dstPerm[di%a.P]] >= perLocal && tries < a.P {
				di++
				tries++
			}
			if srcCount[srcPerm[si%a.P]] >= perLocal || dstCount[dstPerm[di%a.P]] >= perLocal {
				break
			}
			s := srcPerm[si%a.P]
			d := dstPerm[di%a.P]
			srcCount[s]++
			dstCount[d]++
			si++
			di++
			arr[k*a.L.W/max1(total)] = append(arr[k*a.L.W/max1(total)], Arrival{Src: s, Dst: d})
		}
		for off := 0; off < a.L.W; off++ {
			a.mem[win*a.L.W+off] = arr[off]
		}
	}
	return a.mem[t]
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// SingleTargetAdversary injects messages all from source 0 to destination 1
// at local rate Beta — the Theorem 6.5 instability witness for β > 1/g.
type SingleTargetAdversary struct {
	L Limits
}

// Step injects ⌈βW⌉−1 messages per aligned window, spread evenly, all on
// the (0 → 1) flow.
func (a SingleTargetAdversary) Step(t int) []Arrival {
	k := a.L.MaxLocalPerWindow() - 1
	if k <= 0 {
		k = a.L.MaxLocalPerWindow()
	}
	off := t % a.L.W
	// Place the k messages at offsets 0, W/k, 2W/k, ...
	if k > 0 && off%max1(a.L.W/max1(k)) == 0 && off/max1(a.L.W/max1(k)) < k {
		return []Arrival{{Src: 0, Dst: 1}}
	}
	return nil
}

// BurstAdversary injects the whole window's budget in the window's first
// step: the bursty extreme of the constraint envelope.
type BurstAdversary struct {
	P   int
	L   Limits
	rng *xrand.Source
	mem map[int][]Arrival
}

// NewBurstAdversary builds a deterministic bursty adversary.
func NewBurstAdversary(p int, l Limits, seed uint64) *BurstAdversary {
	return &BurstAdversary{P: p, L: l, rng: xrand.New(seed), mem: map[int][]Arrival{}}
}

// Step injects ⌈αW⌉ messages at every window start (sources and
// destinations round-robin under β) and nothing elsewhere. Note aligned
// windows are at the cap; sliding windows across a boundary could see up to
// 2⌈αW⌉ — burst adversaries are validated with aligned windows only.
func (a *BurstAdversary) Step(t int) []Arrival {
	if t%a.L.W != 0 {
		return nil
	}
	if v, ok := a.mem[t]; ok {
		return v
	}
	total := a.L.MaxPerWindow() - 1
	perLocal := a.L.MaxLocalPerWindow()
	var out []Arrival
	srcCount := make([]int, a.P)
	dstCount := make([]int, a.P)
	s, d := 0, a.P/2
	for k := 0; k < total; k++ {
		for srcCount[s%a.P] >= perLocal {
			s++
		}
		for dstCount[d%a.P] >= perLocal {
			d++
		}
		out = append(out, Arrival{Src: s % a.P, Dst: d % a.P})
		srcCount[s%a.P]++
		dstCount[d%a.P]++
		s++
		d++
	}
	a.mem[t] = out
	return out
}

// Scheduler is the static routing algorithm A that Theorem 6.7
// parameterizes Algorithm B over: anything that sends a batch and reports
// its completion time.
type Scheduler func(m *bsp.Machine, plan sched.Plan, knownN int) model.Time

// UnbalancedSendScheduler adapts Theorem 6.2's scheduler.
func UnbalancedSendScheduler(eps float64) Scheduler {
	return func(m *bsp.Machine, plan sched.Plan, knownN int) model.Time {
		return sched.UnbalancedSend(m, plan, sched.Options{Eps: eps, KnownN: knownN}).Time
	}
}

// ConsecutiveSendScheduler adapts Theorem 6.3's scheduler (for flows with
// long messages whose flits must be contiguous).
func ConsecutiveSendScheduler(eps float64) Scheduler {
	return func(m *bsp.Machine, plan sched.Plan, knownN int) model.Time {
		return sched.UnbalancedConsecutiveSend(m, plan, sched.Options{Eps: eps, KnownN: knownN}).Time
	}
}

// FlitAdversary wraps an Adversary, assigning every injected message a
// fixed flit length — the variable-length extension of the dynamic problem
// (the paper's Theorem 6.7 statement is for an arbitrary scheduler A, so
// pairing a flit adversary with ConsecutiveSendScheduler exercises the
// Theorem 6.3 + 6.7 composition).
type FlitAdversary struct {
	Inner Adversary
	Len   int
}

// Step returns the inner arrivals (lengths are applied by RunAlgorithmBWith
// via the plan builder, which reads FlitAdversary.Len).
func (f FlitAdversary) Step(t int) []Arrival { return f.Inner.Step(t) }

// RunAlgorithmBWith is RunAlgorithmB with an explicit scheduler A and
// message length (flits per message; 1 for the unit case). The knownN
// handed to A is ⌈αw⌉·flits, the per-window budget in flits.
func RunAlgorithmBWith(m *bsp.Machine, adv Adversary, l Limits, windows int,
	flits int, schedule Scheduler) Result {
	if !m.Cost().Global() {
		panic("dynamic: RunAlgorithmBWith needs a globally-limited machine")
	}
	if flits < 1 {
		flits = 1
	}
	p := m.P()
	res := Result{Windows: windows}
	free := 0.0
	var closed []int
	var completed []float64
	for i := 0; i < windows; i++ {
		plan := make(sched.Plan, p)
		n := 0
		for t := i * l.W; t < (i+1)*l.W; t++ {
			for _, a := range adv.Step(t) {
				plan[a.Src] = append(plan[a.Src],
					bsp.Msg{Dst: int32(a.Dst), Len: int32(flits), A: int64(t)})
				n++
			}
		}
		closeAt := float64((i + 1) * l.W)
		start := closeAt
		if free > start {
			start = free
		}
		if n > 0 {
			took := schedule(m, plan, l.MaxPerWindow()*flits)
			free = start + took
			res.TotalSent += n
		} else {
			free = start
		}
		closed = append(closed, n)
		completed = append(completed, free)
		res.ServiceTimes = append(res.ServiceTimes, free-closeAt)
		pending := 0
		for j := 0; j <= i; j++ {
			if completed[j] > closeAt {
				pending += closed[j]
			}
		}
		res.Backlog = append(res.Backlog, pending)
		if pending > res.MaxBacklog {
			res.MaxBacklog = pending
		}
	}
	return res
}
