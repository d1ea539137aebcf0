// Package sched implements the randomized message-scheduling algorithms of
// Section 6.1 of Adler, Gibbons, Matias & Ramachandran (SPAA 1997) — the
// paper's core algorithmic contribution — together with the baselines they
// are measured against.
//
// The problem: each processor i of a BSP(m) machine holds x_i messages of
// known destinations (x_i may be wildly unbalanced and is known only to
// processor i). The messages must be injected into a network that sustains
// only m injections per step, with a penalty — exponential in the paper's
// pessimistic reading — for every step that exceeds m. The algorithms
// stagger the injections so that, with high probability, no step exceeds m
// and the total time is within (1+ε) of the optimal offline schedule
// max(n/m, x̄, ȳ):
//
//   - UnbalancedSend (Theorem 6.2): processor i picks a uniformly random
//     phase j_i in a period of T = (1+ε)n/m steps and sends its messages
//     cyclically from that phase. Completion in max((1+ε)n/m, x̄, ȳ) + τ
//     w.h.p., where τ = O(p/m + L + L·lg m/lg L) pays for computing and
//     broadcasting n.
//   - UnbalancedConsecutiveSend (Theorem 6.3): as above but all of a
//     processor's flits go consecutively from j_i (no wraparound), for
//     settings with per-message startup costs; additive x̄' term.
//   - UnbalancedGranularSend (Theorem 6.4): phases are restricted to
//     multiples of the granularity t' = n/p, replacing the n < e^{αm}
//     requirement with p < e^{αm}.
//   - Long-message variant (Section 6.1 end): flits of one message occupy
//     consecutive steps; a message whose cyclic allocation would wrap the
//     period is instead sent straight through, an additive ℓ̂ (max message
//     length) overhead.
//   - WithOverhead: models the LOGP-style per-message startup cost o by
//     prepending o dummy flits to every message.
//
// Baselines: NaiveSend (everyone injects from step 0 — the behaviour of a
// locally-limited algorithm dropped onto a globally-limited machine) and
// OfflineSend (the derandomized schedule using exact prefix ranks, which is
// the optimal offline schedule up to rounding).
//
// Each scheduler has one entry point, over a Plan: x_i messages per
// processor with the slots left to the scheduler. Every BSP scheduler is a
// start rule — a processor's first slot and whether it wraps at the period —
// over one injection superstep (send); the QSM schedulers likewise share one
// write phase (writeQSM). Traffic held in the canonical work.IR enters as
// Plan(ir.Rows(step)); ReplayAll instead injects an IR's own slot schedule
// verbatim.
package sched

import (
	"parbw/internal/bsp"
	"parbw/internal/collective"
	"parbw/internal/model"
)

// Plan assigns each processor the messages it must send: Plan[i] are
// processor i's outgoing messages (Dst and Len must be set; Src is filled by
// the engine). The schedulers only read a plan — compile copies its
// messages — so one plan may be run by any number of schedulers.
type Plan [][]bsp.Msg

// Flits returns per-processor flit counts x_i, the total n, and the
// receive-side flit counts y_i.
func (p Plan) Flits(procs int) (x []int, n int, y []int) {
	x = make([]int, procs)
	y = make([]int, procs)
	for i, msgs := range p {
		for _, msg := range msgs {
			f := msg.Flits()
			x[i] += f
			n += f
			y[msg.Dst] += f
		}
	}
	return x, n, y
}

// MaxLen returns the maximum message length ℓ̂ in the plan (0 if empty).
func (p Plan) MaxLen() int {
	max := 0
	for _, msgs := range p {
		for _, msg := range msgs {
			if f := msg.Flits(); f > max {
				max = f
			}
		}
	}
	return max
}

// WithOverhead returns a copy of the plan in which every message is
// lengthened by o flits, modeling a startup cost of o per message (the
// LOGP overhead parameter): the o extra flits occupy injection steps just
// as payload flits do.
func (p Plan) WithOverhead(o int) Plan {
	if o < 0 {
		panic("sched: negative overhead")
	}
	out := make(Plan, len(p))
	for i, msgs := range p {
		out[i] = make([]bsp.Msg, len(msgs))
		for j, msg := range msgs {
			msg.Len = int32(msg.Flits() + o)
			out[i][j] = msg
		}
	}
	return out
}

// Options configures a scheduling run.
type Options struct {
	// Eps is the paper's ε; the schedule period is (1+ε)n/m. Zero selects
	// 0.25.
	Eps float64
	// KnownN, if positive, declares the total flit count known to all
	// processors in advance, skipping the prefix-sum/broadcast (τ = 0). The
	// value must be at least the plan's true total.
	KnownN int
	// GranularC is the constant c of Unbalanced-Granular-Send's c·n/m
	// period. Zero selects 4.
	GranularC float64
}

func (o Options) eps() float64 {
	if o.Eps <= 0 {
		return 0.25
	}
	return o.Eps
}

func (o Options) granularC() float64 {
	if o.GranularC <= 0 {
		return 4
	}
	return o.GranularC
}

// Result reports a completed scheduling run.
type Result struct {
	Time   model.Time // total simulated time, including τ
	Tau    model.Time // time spent computing and broadcasting n
	Send   bsp.Stats  // stats of the sending superstep
	N      int        // total flits sent
	XBar   int        // max flits sent by one processor (x̄)
	YBar   int        // max flits destined to one processor (ȳ)
	Period int        // schedule period T used
}

// OptimalOffline returns the offline lower bound max(⌈n/m⌉, x̄, ȳ, L) for
// the run's traffic on a machine with aggregate bandwidth m and latency l.
func (r Result) OptimalOffline(m, l int) model.Time {
	t := float64((r.N + m - 1) / m)
	if f := float64(r.XBar); f > t {
		t = f
	}
	if f := float64(r.YBar); f > t {
		t = f
	}
	if f := float64(l); f > t {
		t = f
	}
	return t
}

// compiled is a plan compacted for the sending hot loop: one contiguous
// message array with per-processor row bounds and a per-message cumulative
// flit offset, so the superstep body computes each injection slot with two
// array reads and an add — no nested slices, no repeated Flits calls, and
// no recomputation of the flit tallies that both the period computation and
// the result assembly need. Compilation also validates the plan (shape and
// destinations).
type compiled struct {
	msgs []bsp.Msg // all rows concatenated in processor order
	row  []int     // len p+1; msgs[row[i]:row[i+1]] is processor i's row
	off  []int     // per-message flit offset within its row (cumulative)
	x    []int     // per-processor flit counts x_i
	y    []int     // per-destination flit counts y_i
	n    int       // total flits
}

// compile flattens and validates a plan against machine m. Validation is
// CheckPlan's; callers that cannot tolerate a panic (generated or
// adversarial plans) must run CheckPlan themselves first.
func compile(m *bsp.Machine, plan Plan) *compiled {
	p := m.P()
	if err := CheckPlan(p, plan); err != nil {
		panic(err.Error())
	}
	total := 0
	for _, msgs := range plan {
		total += len(msgs)
	}
	c := &compiled{
		msgs: make([]bsp.Msg, 0, total),
		row:  make([]int, p+1),
		off:  make([]int, total),
		x:    make([]int, p),
		y:    make([]int, p),
	}
	for i, msgs := range plan {
		c.row[i] = len(c.msgs)
		acc := 0
		for _, msg := range msgs {
			c.off[len(c.msgs)] = acc
			c.msgs = append(c.msgs, msg)
			f := msg.Flits()
			acc += f
			c.y[msg.Dst] += f
		}
		c.x[i] = acc
		c.n += acc
	}
	c.row[p] = len(c.msgs)
	return c
}

// bars returns max x_i, max y_i.
func (c *compiled) bars() (xb, yb int) {
	for i := range c.x {
		if c.x[i] > xb {
			xb = c.x[i]
		}
		if c.y[i] > yb {
			yb = c.y[i]
		}
	}
	return xb, yb
}

// learnN makes n known to every processor: either via Options.KnownN, or by
// running the prefix-sum-and-broadcast protocol on the machine (charging τ).
func learnN(m *bsp.Machine, x []int, opt Options) (n int, tau model.Time) {
	if opt.KnownN > 0 {
		return opt.KnownN, 0
	}
	counts := make([]int64, len(x))
	for i, v := range x {
		counts[i] = int64(v)
	}
	before := m.Time()
	total := collective.SumAllBSP(m, counts, collective.Sum)
	return int(total), m.Time() - before
}

// send is the one injection superstep every BSP scheduler runs; the
// schedulers differ only in their start rule. start(c, x) returns the first
// slot of a processor holding x > 0 flits and its wrap period (0 = no wrap);
// it is not called for idle processors. Message k of the row [lo, hi) goes
// at start + off[k] + (k−lo)·sep, taken mod wrap when wrap > 0. The flits
// of one message go consecutively from that slot, so a message whose
// allocation would wrap past the period simply runs past it (the paper's
// long-message modification; at most one message per processor crosses,
// since a wrapping processor holds x·(sep+1) <= wrap flits).
func send(m *bsp.Machine, cp *compiled, tau model.Time, T, sep int,
	start func(c *bsp.Ctx, x int) (slot, wrap int)) Result {
	st := m.Superstep(func(c *bsp.Ctx) {
		i := c.ID()
		if cp.x[i] == 0 {
			return
		}
		slot, wrap := start(c, cp.x[i])
		lo, hi := cp.row[i], cp.row[i+1]
		for k := lo; k < hi; k++ {
			s := slot + cp.off[k] + (k-lo)*sep
			if wrap > 0 {
				s %= wrap
			}
			c.SendAt(s, int(cp.msgs[k].Dst), cp.msgs[k])
		}
	})
	xb, yb := cp.bars()
	return Result{
		Time:   st.Cost + tau,
		Tau:    tau,
		Send:   st,
		N:      cp.n,
		XBar:   xb,
		YBar:   yb,
		Period: T,
	}
}

// UnbalancedSend runs Algorithm Unbalanced-Send (Theorem 6.2): processor i
// with x_i <= T sends cyclically from a uniform phase in the period
// T = max(⌊(1+ε)n/m⌋, 1), an overloaded processor consecutively from step 0.
// Messages of length > 1 use the paper's long-message modification: a
// message whose cyclic allocation crosses the period boundary is sent
// straight through in consecutive steps (additive ℓ̂). It is TemplateSend
// with no separation.
func UnbalancedSend(m *bsp.Machine, plan Plan, opt Options) Result {
	return TemplateSend(m, plan, 0, opt)
}

// UnbalancedConsecutiveSend runs Algorithm Unbalanced-Consecutive-Send
// (Theorem 6.3): a processor with x_i <= T sends all its flits consecutively
// from a uniformly random start in [0, T); the expected completion gains an
// additive x̄' term (x̄' = max x_i over non-overloaded processors).
func UnbalancedConsecutiveSend(m *bsp.Machine, plan Plan, opt Options) Result {
	cp := compile(m, plan)
	n, tau := learnN(m, cp.x, opt)
	T := model.Period(n, m.Cost().M, opt.eps())
	return send(m, cp, tau, T, 0, func(c *bsp.Ctx, x int) (int, int) {
		if x > T {
			return 0, 0
		}
		return c.RNG().Intn(T), 0
	})
}

// UnbalancedGranularSend runs Algorithm Unbalanced-Granular-Send
// (Theorem 6.4): start slots are restricted to multiples of the granularity
// t' = max(1, n/p), so the failure probability depends on p rather than n
// (stated requirement p < e^{αm} instead of n < e^{αm}). The period is
// c·n/m with c = Options.GranularC.
func UnbalancedGranularSend(m *bsp.Machine, plan Plan, opt Options) Result {
	cp := compile(m, plan)
	n, tau := learnN(m, cp.x, opt)
	mm := m.Cost().M
	tGran := max(n/m.P(), 1)
	T := max(int(opt.granularC()*float64(n)/float64(mm)), 1)
	nOverM := n / mm
	return send(m, cp, tau, T, 0, func(c *bsp.Ctx, x int) (int, int) {
		// Random start among granules that leave room for x flits.
		if granules := (T - x) / tGran; x <= nOverM && granules > 0 {
			return c.RNG().Intn(granules) * tGran, 0
		}
		return 0, 0
	})
}

// NaiveSend injects every processor's messages consecutively from step 0 —
// what a schedule-oblivious algorithm does. On a globally-limited machine
// with many active senders this overloads the early steps and, under the
// exponential penalty, is catastrophically slow; it is the ablation baseline
// for the value of scheduling.
func NaiveSend(m *bsp.Machine, plan Plan) Result {
	return send(m, compile(m, plan), 0, 0, 0, func(*bsp.Ctx, int) (int, int) { return 0, 0 })
}

// OfflineSend injects messages according to the optimal offline schedule:
// global flit ranks are assigned by processor order and flit k goes to step
// k mod T with T = max(⌈n/m⌉, x̄) (long messages straight through on a
// period crossing, as in UnbalancedSend). Each step carries at most
// ⌈n/T⌉ <= m flits. The offline ranks are computed for free — this baseline
// models a scheduler with complete advance knowledge, the yardstick of
// Theorems 6.2–6.4.
func OfflineSend(m *bsp.Machine, plan Plan) Result {
	cp := compile(m, plan)
	p := m.P()
	xb, _ := cp.bars()
	T := max((cp.n+m.Cost().M-1)/m.Cost().M, xb, 1)
	rank := make([]int, p) // global flit rank of proc i's first flit
	for i, acc := 1, 0; i < p; i++ {
		acc += cp.x[i-1]
		rank[i] = acc
	}
	return send(m, cp, 0, T, 0, func(c *bsp.Ctx, _ int) (int, int) {
		return rank[c.ID()], T
	})
}

// TemplateSend is the paper's closing remark on Unbalanced-Send: "the
// algorithm can be easily adapted to any other sending pattern, such as if
// we insist on having a certain separation between every two messages sent
// by the same processor. We can use the same algorithm on any sending
// pattern 'template', where the sending times are chosen by cyclically
// shifting the template by j slots."
//
// Here the template enforces a gap of `sep` idle steps between consecutive
// messages of one processor: message k occupies template slot k·(sep+1),
// cyclically shifted by a uniform j. The period scales to
// (1+ε)·n·(sep+1)/m so the per-step expected load stays m/(1+ε). A
// processor whose template does not fit the period sends from step 0 with
// the same separation.
func TemplateSend(m *bsp.Machine, plan Plan, sep int, opt Options) Result {
	if sep < 0 {
		panic("sched: negative separation")
	}
	cp := compile(m, plan)
	n, tau := learnN(m, cp.x, opt)
	T := model.Period(n*(sep+1), m.Cost().M, opt.eps())
	return send(m, cp, tau, T, sep, func(c *bsp.Ctx, x int) (int, int) {
		if x*(sep+1) > T {
			return 0, 0
		}
		return c.RNG().Intn(T), T
	})
}
