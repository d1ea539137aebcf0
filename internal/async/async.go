// Package async is an asynchronous counterpart to the bulk-synchronous
// BSP(m) machine — the direction of the paper's remark that "many of our
// results extend to more asynchronous models". There are no supersteps.
// Time is logical (Lamport-style clocks): local work advances a processor's
// clock, and the shared network admits messages through a token bucket
// that fills at rate m, so the aggregate bandwidth limit is enforced by
// *backpressure* rather than by an explicit schedule — a sender's clock
// stalls until the network can take its message.
//
// Run is a conservative discrete-event scheduler. Exactly one processor
// program runs at a time: the runnable processor with the smallest
// (clock, id). Send and Recv are the only points where a program yields.
// Send yields before it takes a token, so the k-th admission goes to the
// k-th sender in logical-time order. A processor waiting in Recv is
// runnable only while its inbox holds a message, keyed at
// max(clock, earliest arrival). The output is therefore a function of the
// program alone, identical at any GOMAXPROCS.
//
// The interesting consequence, measured by the `async/backpressure`
// experiment: on an asynchronous machine with flow control, oblivious
// injection already completes within a small factor of max(n/m, x̄, ȳ) + L
// — the network's serialization point performs the "scheduling" that
// Theorem 6.2's randomized algorithm must perform explicitly in the
// bulk-synchronous setting, where a sender commits to injection times
// without feedback. This is precisely why the BSP(m) charges a penalty for
// oblivious overload and why its algorithms must stagger sends. For a
// program that sends everything before it receives anything, completion T
// obeys max(n/m, x̄+L, ȳ+L) <= T <= n/m + x̄ + ȳ + L.
package async

import (
	"fmt"
	"runtime"

	"parbw/internal/model"
)

// Msg is an asynchronous message with its logical arrival time.
type Msg struct {
	Src, Dst int
	A        int64
	arrival  float64
}

// Arrival returns the message's logical arrival time at the receiver.
func (m Msg) Arrival() float64 { return m.arrival }

// Config describes an asynchronous machine.
type Config struct {
	P       int     // processors
	M       int     // aggregate bandwidth: the network takes m messages per time unit
	Latency float64 // delivery latency added to each message
}

// Machine is the asynchronous runtime. Construct with New, run with Run.
type Machine struct {
	cfg   Config
	sent  int // admissions so far; admission k departs no earlier than k/m
	procs []Proc

	// halt carries Run's outcome from the processor that ends it: nil when
	// every program finished, a panic value or a deadlock report otherwise.
	halt chan any
	// exited receives one value from each processor goroutine as it ends.
	exited chan struct{}
	// stopping tells parked processors, once woken, to exit without
	// running further program code.
	stopping bool
}

// New constructs an asynchronous machine.
func New(cfg Config) *Machine {
	if cfg.P < 1 || cfg.M < 1 {
		panic("async: need P >= 1 and M >= 1")
	}
	if cfg.Latency < 0 {
		panic("async: negative latency")
	}
	return &Machine{cfg: cfg}
}

// state is where a processor stands between turns.
type state uint8

const (
	ready     state = iota // at its start or in Send: runnable at its clock
	receiving              // in Recv: runnable once its inbox is non-empty
	done                   // its program returned or panicked
)

// Proc is a processor's handle inside its program.
type Proc struct {
	id    int
	m     *Machine
	clock float64
	state state
	// inbox holds delivered, unreceived messages in admission order, which
	// is also arrival order: each admission departs at max(sender clock,
	// k/m), and both terms are non-decreasing in k because senders are
	// admitted in (clock, id) order.
	inbox []Msg
	// wake hands this processor the turn; only the processor (or Run)
	// giving up the turn sends on it.
	wake chan struct{}
}

// ID returns the processor index.
func (p *Proc) ID() int { return p.id }

// Work advances the processor's clock by units of local computation.
func (p *Proc) Work(units float64) {
	if units > 0 {
		p.clock += units
	}
}

// Send transmits a message under token-bucket backpressure: tokens
// accumulate at rate m from time 0, so the k-th admitted message cannot
// depart before k/m; a bursty sender may use capacity left idle earlier
// (the linear-penalty world f^ℓ, where the network absorbs bursts at
// sustained rate m). The sender's clock stalls to the departure time and
// then advances one unit (one flit per step, as in the BSP models).
func (p *Proc) Send(dst int, a int64) {
	if dst < 0 || dst >= p.m.cfg.P {
		panic(fmt.Sprintf("async: send to invalid dst %d", dst))
	}
	p.yield(ready)
	k := p.m.sent
	p.m.sent++
	depart := p.clock
	if budget := float64(k) / float64(p.m.cfg.M); budget > depart {
		depart = budget
	}
	p.clock = depart + 1
	to := &p.m.procs[dst]
	to.inbox = append(to.inbox, Msg{Src: p.id, Dst: dst, A: a, arrival: depart + p.m.cfg.Latency})
}

// Recv waits for the earliest-arriving message (ties in admission order)
// and advances the clock to its arrival plus one unit of receive handling.
func (p *Proc) Recv() Msg {
	p.yield(receiving)
	msg := p.inbox[0]
	p.inbox = p.inbox[1:]
	if msg.arrival > p.clock {
		p.clock = msg.arrival
	}
	p.clock++
	return msg
}

// key reports whether the processor can take the turn, and at which time.
// Every message sent later departs no earlier than the smallest key, so a
// receiver keyed at max(clock, inbox[0].arrival) can take inbox[0] safely.
func (p *Proc) key() (float64, bool) {
	switch p.state {
	case ready:
		return p.clock, true
	case receiving:
		if len(p.inbox) > 0 {
			return max(p.clock, p.inbox[0].arrival), true
		}
	}
	return 0, false
}

// next returns the runnable processor with the smallest (key, id), or nil.
func (m *Machine) next() *Proc {
	var best *Proc
	bestKey := 0.0
	for i := range m.procs {
		if k, ok := m.procs[i].key(); ok && (best == nil || k < bestKey) {
			best, bestKey = &m.procs[i], k
		}
	}
	return best
}

// yield enters state s, gives the turn to the processor the schedule picks
// and returns once this processor holds it again.
func (p *Proc) yield(s state) {
	if p.m.stopping {
		runtime.Goexit()
	}
	p.state = s
	next := p.m.next()
	if next == p {
		return
	}
	p.m.pass(next)
	p.park()
}

// park waits for the turn; a processor woken to stop exits instead.
func (p *Proc) park() {
	<-p.wake
	if p.m.stopping {
		runtime.Goexit()
	}
}

// pass hands the turn to next, or ends Run when no processor can run.
func (m *Machine) pass(next *Proc) {
	if next != nil {
		next.wake <- struct{}{}
		return
	}
	var stuck []int
	for i := range m.procs {
		if m.procs[i].state != done {
			stuck = append(stuck, i)
		}
	}
	if len(stuck) == 0 {
		m.halt <- nil
		return
	}
	m.halt <- fmt.Sprintf("async: deadlock: processors %v wait in Recv with empty inboxes", stuck)
}

// main is processor p's goroutine: wait for the first turn, run the
// program, then pass the turn on. A program that panics or calls
// runtime.Goexit ends Run.
func (p *Proc) main(program func(*Proc)) {
	defer func() { p.m.exited <- struct{}{} }()
	defer func() {
		v := recover()
		if p.state == done || p.m.stopping {
			return
		}
		p.state = done
		if v == nil {
			v = fmt.Sprintf("async: processor %d called runtime.Goexit", p.id)
		}
		p.m.halt <- v
	}()
	p.park()
	program(p)
	p.state = done
	p.m.pass(p.m.next())
}

// Run executes program for every processor under the discrete-event
// schedule and returns the logical completion time (the maximum final
// clock) once all have finished. A panic in a program is re-raised on the
// caller; if every unfinished processor waits in Recv with an empty inbox,
// Run panics naming them. No goroutine Run starts outlives it.
func (m *Machine) Run(program func(p *Proc)) float64 {
	m.procs = make([]Proc, m.cfg.P)
	m.halt = make(chan any)
	m.exited = make(chan struct{}, m.cfg.P) // one send per goroutine, so none blocks
	m.stopping = false
	for i := range m.procs {
		m.procs[i] = Proc{id: i, m: m, wake: make(chan struct{}, 1)}
		go m.procs[i].main(program)
	}
	m.procs[0].wake <- struct{}{} // every clock is 0, so processor 0 goes first
	outcome := <-m.halt
	m.stopping = true
	for i := range m.procs {
		if m.procs[i].state != done {
			m.procs[i].wake <- struct{}{}
		}
	}
	for range m.procs {
		<-m.exited
	}
	if outcome != nil {
		panic(outcome)
	}
	completion := 0.0
	for i := range m.procs {
		completion = max(completion, m.procs[i].clock)
	}
	return completion
}

// Sent returns the total messages admitted by the network.
func (m *Machine) Sent() int { return m.sent }

// OfflineBound returns the asynchronous lower bound
// max(n/m, x̄, ȳ) + latency for a workload with the given totals.
func (m *Machine) OfflineBound(n, xbar, ybar int) model.Time {
	t := float64(n) / float64(m.cfg.M)
	if f := float64(xbar); f > t {
		t = f
	}
	if f := float64(ybar); f > t {
		t = f
	}
	return t + m.cfg.Latency
}
