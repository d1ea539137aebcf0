// Package model defines the four bandwidth-limited machine models studied in
// Adler, Gibbons, Matias & Ramachandran, "Modeling Parallel Bandwidth: Local
// vs. Global Restrictions" (SPAA 1997), together with the network-overload
// penalty functions used by the globally-limited models.
//
// The locally-limited models, BSP(g) and QSM(g), charge each processor g time
// units per message or shared-memory request: a superstep in which some
// processor sends or receives h messages costs at least g·h.
//
// The globally-limited models, BSP(m) and QSM(m) (defined by the paper),
// instead let the network sustain m message injections per unit step. A
// superstep is a sequence of steps; if m_t messages are injected in step t,
// the step is charged f_m(m_t), where f_m is 0 for m_t = 0, 1 for
// 1 <= m_t <= m, and a growing penalty for m_t > m. The paper uses the
// linear charge f^ℓ(m_t) = m_t/m for lower bounds and the exponential charge
// f^u(m_t) = e^{m_t/m - 1} for upper bounds.
//
// Time in this library is a float64 count of model time units; it is
// simulated time, unrelated to wall-clock execution time of the simulator.
package model

import (
	"fmt"
	"math"
)

// Time is simulated model time.
type Time = float64

// Penalty is the per-step network charge function f_m of the globally
// limited models: given the number of messages m_t injected in a step and
// the aggregate bandwidth m, it returns the time charged for that step.
type Penalty func(mt, m int) Time

// LinearPenalty is f^ℓ: 0 for m_t=0, 1 for 1<=m_t<=m, m_t/m above. The paper
// uses it for lower bounds; it models a network that absorbs any injection
// rate at throughput m with no overload penalty.
func LinearPenalty(mt, m int) Time {
	switch {
	case mt <= 0:
		return 0
	case mt <= m:
		return 1
	default:
		return float64(mt) / float64(m)
	}
}

// ExpPenalty is f^u: 0 for m_t=0, 1 for 1<=m_t<=m, e^{m_t/m - 1} above. The
// paper uses it for upper bounds; it models a network whose performance
// deteriorates drastically past its aggregate bandwidth m. The result
// saturates at MaxPenalty rather than overflowing to +Inf so that tables
// remain comparable.
func ExpPenalty(mt, m int) Time {
	switch {
	case mt <= 0:
		return 0
	case mt <= m:
		return 1
	default:
		e := float64(mt)/float64(m) - 1
		if e > maxExpArg {
			return MaxPenalty
		}
		return math.Exp(e)
	}
}

// MaxPenalty is the saturation value of ExpPenalty.
const MaxPenalty = 1e300

// maxExpArg is ln(MaxPenalty).
var maxExpArg = math.Log(MaxPenalty)

// Kind identifies which cost discipline a machine uses.
type Kind int

const (
	// KindBSPg is the locally-limited message-passing model BSP(g):
	// superstep cost max(w, g·h, L).
	KindBSPg Kind = iota
	// KindBSPm is the globally-limited message-passing model BSP(m):
	// superstep cost max(w, h, c_m, L) with c_m = Σ_t f_m(m_t).
	KindBSPm
	// KindBSPSelfSched is the self-scheduling BSP(m) variant of Section 2:
	// superstep cost max(w, h, n/m, L) where n is the total number of
	// messages sent in the superstep, ignoring exact injection times.
	KindBSPSelfSched
	// KindQSMg is the locally-limited shared-memory model QSM(g):
	// phase cost max(w, g·h, κ).
	KindQSMg
	// KindQSMm is the globally-limited shared-memory model QSM(m):
	// phase cost max(w, h, κ, c_m).
	KindQSMm
)

// String returns the paper's name for the model kind.
func (k Kind) String() string {
	switch k {
	case KindBSPg:
		return "BSP(g)"
	case KindBSPm:
		return "BSP(m)"
	case KindBSPSelfSched:
		return "ss-BSP(m)"
	case KindQSMg:
		return "QSM(g)"
	case KindQSMm:
		return "QSM(m)"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Cost is a fully parameterized cost model for one machine.
type Cost struct {
	Kind Kind
	// G is the per-processor gap for the (g) models.
	G int
	// M is the aggregate bandwidth for the (m) models.
	M int
	// L is the BSP periodicity parameter (latency plus synchronization);
	// unused by the QSM models.
	L int
	// Penalty is the overload charge for the (m) models; nil selects
	// ExpPenalty, the paper's pessimistic upper-bound charge.
	Penalty Penalty
}

// Validate checks parameter sanity for the model kind.
func (c Cost) Validate(p int) error {
	if p <= 0 {
		return fmt.Errorf("model: p = %d, want > 0", p)
	}
	switch c.Kind {
	case KindBSPg, KindQSMg:
		if c.G < 1 {
			return fmt.Errorf("model: %v requires g >= 1, got %d", c.Kind, c.G)
		}
	case KindBSPm, KindBSPSelfSched, KindQSMm:
		if c.M < 1 {
			return fmt.Errorf("model: %v requires m >= 1, got %d", c.Kind, c.M)
		}
	default:
		return fmt.Errorf("model: unknown kind %d", int(c.Kind))
	}
	switch c.Kind {
	case KindBSPg, KindBSPm, KindBSPSelfSched:
		if c.L < 1 {
			return fmt.Errorf("model: %v requires L >= 1, got %d", c.Kind, c.L)
		}
	}
	return nil
}

// penalty returns the configured penalty function, defaulting to ExpPenalty.
func (c Cost) penalty() Penalty {
	if c.Penalty != nil {
		return c.Penalty
	}
	return ExpPenalty
}

// CM computes c_m = Σ_t f_m(m_t) for a per-step injection histogram. Only
// meaningful for the (m) kinds.
func (c Cost) CM(slots []int) Time {
	f := c.penalty()
	sum := 0.0
	for _, mt := range slots {
		sum += f(mt, c.M)
		if sum >= MaxPenalty {
			return MaxPenalty
		}
	}
	return sum
}

// Global reports whether the model is globally (aggregate) limited.
func (c Cost) Global() bool {
	return c.Kind == KindBSPm || c.Kind == KindBSPSelfSched || c.Kind == KindQSMm
}

// Budget returns the per-step injection budget of a p-processor machine: M
// on a globally-limited kind, p on a locally-limited one, which has no
// aggregate limit. It is not clamped to p.
func (c Cost) Budget(p int) int {
	if c.Global() {
		return c.M
	}
	return p
}

// Period returns the Unbalanced-Send period T = max(⌊(1+ε)n/m⌋, 1) for n
// flits at m injections per step (Theorem 6.2). It returns 1 when m < 1,
// where the quotient would be infinite and its conversion to int undefined.
func Period(n, m int, eps float64) int {
	if m < 1 {
		return 1
	}
	return max(int((1+eps)*float64(n)/float64(m)), 1)
}

// Slots prices a step histogram: its peak load, its overloaded steps
// (m_t > M, globally-limited kinds only) and c_m = CM(hist) (BSP(m) and
// QSM(m) only; the self-scheduling model ignores injection times).
func (c Cost) Slots(hist []int) (peak, overload int, cm Time) {
	global, budget := c.Global(), c.M // once per histogram, not per slot
	for _, mt := range hist {
		peak = max(peak, mt)
		if global && mt > budget {
			overload++
		}
	}
	if c.Kind == KindBSPm || c.Kind == KindQSMm {
		cm = c.CM(hist)
	}
	return peak, overload, cm
}

// SharedMemory reports whether the model is a QSM variant.
func (c Cost) SharedMemory() bool {
	return c.Kind == KindQSMg || c.Kind == KindQSMm
}

// BSPSuperstep computes the cost of one BSP superstep under this model.
//
//	w     — maximum local work over processors
//	h     — maximum over processors of max(sends, receives)
//	n     — total messages sent in the superstep
//	cm    — c_m of the per-step injection histogram, CM(hist), which the
//	        caller has already computed (ignored by BSP(g) and the
//	        self-scheduling model)
func (c Cost) BSPSuperstep(w, h, n int, cm Time) Time {
	t := float64(w)
	if lt := float64(c.L); lt > t {
		t = lt
	}
	switch c.Kind {
	case KindBSPg:
		if gh := float64(c.G) * float64(h); gh > t {
			t = gh
		}
	case KindBSPm:
		if fh := float64(h); fh > t {
			t = fh
		}
		if cm > t {
			t = cm
		}
	case KindBSPSelfSched:
		if fh := float64(h); fh > t {
			t = fh
		}
		if nm := float64(n) / float64(c.M); nm > t {
			t = nm
		}
	default:
		panic(fmt.Sprintf("model: BSPSuperstep on %v", c.Kind))
	}
	return t
}

// QSMPhase computes the cost of one QSM phase under this model.
//
//	w     — maximum local work over processors
//	h     — max(1, maximum over processors of max(reads, writes))
//	kappa — maximum per-location contention
//	cm    — c_m of the per-step request histogram, CM(hist) (ignored by
//	        QSM(g))
func (c Cost) QSMPhase(w, h, kappa int, cm Time) Time {
	if h < 1 {
		h = 1
	}
	t := float64(w)
	if k := float64(kappa); k > t {
		t = k
	}
	switch c.Kind {
	case KindQSMg:
		if gh := float64(c.G) * float64(h); gh > t {
			t = gh
		}
	case KindQSMm:
		if fh := float64(h); fh > t {
			t = fh
		}
		if cm > t {
			t = cm
		}
	default:
		panic(fmt.Sprintf("model: QSMPhase on %v", c.Kind))
	}
	return t
}

// BSPg returns a BSP(g) cost model.
func BSPg(g, l int) Cost { return Cost{Kind: KindBSPg, G: g, L: l} }

// BSPm returns a BSP(m) cost model with the exponential penalty.
func BSPm(m, l int) Cost { return Cost{Kind: KindBSPm, M: m, L: l} }

// BSPmLinear returns a BSP(m) cost model with the linear penalty f^ℓ.
func BSPmLinear(m, l int) Cost {
	return Cost{Kind: KindBSPm, M: m, L: l, Penalty: LinearPenalty}
}

// BSPSelfSched returns a self-scheduling BSP(m) cost model.
func BSPSelfSched(m, l int) Cost { return Cost{Kind: KindBSPSelfSched, M: m, L: l} }

// QSMg returns a QSM(g) cost model.
func QSMg(g int) Cost { return Cost{Kind: KindQSMg, G: g} }

// QSMm returns a QSM(m) cost model with the exponential penalty.
func QSMm(m int) Cost { return Cost{Kind: KindQSMm, M: m} }

// QSMmLinear returns a QSM(m) cost model with the linear penalty f^ℓ.
func QSMmLinear(m int) Cost {
	return Cost{Kind: KindQSMm, M: m, Penalty: LinearPenalty}
}
