// Package bsp simulates bulk-synchronous message-passing machines under the
// locally-limited BSP(g) and globally-limited BSP(m) cost models of Adler,
// Gibbons, Matias & Ramachandran (SPAA 1997), as well as the paper's
// self-scheduling BSP(m) variant.
//
// A Machine owns p simulated processors. An algorithm is a sequence of calls
// to Machine.Superstep, each executing a per-processor program for every
// processor, one at a time in ascending id order on the caller's goroutine,
// and then performing the bulk synchronization:
// messages sent in a superstep are delivered before the next superstep
// begins, and the superstep is charged according to the machine's cost
// model. All "time" accumulated by the machine is simulated model time.
//
// In the globally-limited models, a processor must schedule its message
// injections into discrete steps within the superstep (at most one flit per
// processor per step); SendAt pins the injection step, while Send assigns
// the next free step. The engine records the exact per-step injection
// histogram m_t and charges c_m = Σ_t f_m(m_t) per the model's penalty
// function.
//
// Non-receipt of messages is observable (an empty inbox is information),
// which the ternary broadcast of the paper's Section 4.2 exploits.
//
// Superstep runs the per-processor program loop and the BSP-specific merge
// (message routing, cost accounting); the commit it ends with — clock,
// process-wide counters, observer — is internal/engine's Core. The
// superstep's sizes are counted at send time: each send adds to its
// destination's flit and message counts and to its sender's flit count, so
// the program loop already knows h, n and the step span when the merge
// begins. A processor whose sends ran in nondecreasing, non-overlapping slot
// order needs no schedule check; the merge sorts and validates only the runs
// sent out of order.
//
// Delivery needs no copy when the traffic is contiguous. Each send also
// notes whether its destination's messages so far sit next to each other in
// the send arena. When every destination's do and every run was sent in slot
// order — a permutation, a gather, a broadcast tree — the arena already
// holds each destination's messages in (source, slot) order, and the arena
// itself becomes the next inbox. Any other superstep counting-sorts the
// arena into a second buffer in that same order, so both paths deliver
// identical inboxes.
package bsp

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"parbw/internal/engine"
	"parbw/internal/model"
	"parbw/internal/xrand"
)

// Msg is a point-to-point message. Len is the message length in flits
// (Len <= 0 is treated as 1). The payload fields A, B, C carry algorithm
// data; Tag distinguishes message roles within an algorithm.
type Msg struct {
	Src, Dst int32
	Tag      uint8
	Len      int32
	A, B, C  int64
}

// Flits returns the length of the message in flits (at least 1).
func (m Msg) Flits() int {
	if m.Len <= 1 {
		return 1
	}
	return int(m.Len)
}

// Stats describes one executed superstep.
type Stats struct {
	W        int        // maximum local work over processors
	H        int        // max over processors of max(flits sent, flits received)
	HSend    int        // max flits sent by any processor
	HRecv    int        // max flits received by any processor
	N        int        // total flits sent
	Steps    int        // number of injection steps spanned (max slot + 1)
	MaxSlot  int        // maximum per-step injection count m_t
	Overload int        // number of steps with m_t > m (0 for local models)
	CM       model.Time // c_m = Σ_t f_m(m_t) (0 for local models)
	Cost     model.Time // superstep cost under the machine's model
}

// Config configures a Machine with an explicit model.Cost — model.BSPg,
// model.BSPm, or a custom BSP kind such as the self-scheduling BSP(m).
type Config struct {
	P    int        // number of simulated processors (>= 1)
	Cost model.Cost // cost model; must be a BSP kind
	Seed uint64     // experiment seed; all processor RNGs derive from it
	// Observer, if non-nil, receives a normalized engine.StepStats callback
	// after every superstep. It is the only way to observe the machine.
	Observer engine.Observer
}

// Machine is a simulated BSP machine. Methods must be called from a single
// driver goroutine; the per-processor programs passed to Superstep run on
// that goroutine, processor 0 first, so a program may touch state shared
// with the other processors' programs without synchronization.
//
// Per-processor state is flat: the running processor's work, sent flits and
// next free slot are scalars on the one Ctx, queued sends live in one arena
// carved into processor runs by an offset column, each destination's
// delivery record is taken as the sends are queued, inboxes are views carved
// by those records out of one message buffer, and the random sources are a
// lazy engine.Cols column. Machine memory is O(p) flat words plus O(1)
// objects — never O(p) objects.
type Machine struct {
	p    int
	cost model.Cost
	core *engine.Core
	cols *engine.Cols

	// sends is the send arena: processors run in ascending order and each
	// appends its sends, so the arena is every processor's run concatenated
	// in processor order, and processor i's run is sends[off[i]:off[i+1]]
	// (off has length p+1). slots is the arena's parallel injection-slot
	// column, never shorter than the arena's capacity. ctx is the one Ctx
	// every program runs under.
	sends []Msg
	slots []int32
	off   []int32
	ctx   Ctx

	// Send-time bookkeeping, reset when a superstep starts. routes (length
	// p) holds each destination's record of the superstep in flight, hist
	// the per-step injection counts m_t so far (its backing array is zero
	// past its length), and hrecv the largest flit count any destination
	// has received so far.
	// last is the previous send's destination; scattered is set by a send to
	// a destination that already holds messages but was not last, after
	// which that destination's messages are not adjacent in the arena.
	// unordered lists, in id order, the processors whose runs were sent out
	// of slot order: the only runs the merge sorts and checks.
	routes    []route
	hist      []int
	hrecv     int
	last      int32
	scattered bool
	unordered []int32

	// inbox is the message buffer the current inboxes are carved from, and
	// inRoutes (length p) holds their records. spare is the third message
	// buffer. The merge rotates arena, inbox and spare so that a superstep's
	// sends never land in the inbox its programs read. low counts
	// consecutive supersteps that used under a quarter of the largest
	// buffer's capacity.
	inbox    []Msg
	inRoutes []route
	spare    []Msg
	low      int
}

// route is one destination's delivery record for one superstep: the flits
// and messages sent to it, and the index just past its last message in the
// buffer that delivers them, so its inbox is buf[end-n : end].
type route struct {
	flits  int
	n, end int32
}

// New constructs a Machine. It panics on invalid configuration.
func New(cfg Config) *Machine {
	if cfg.Cost.SharedMemory() {
		panic(fmt.Sprintf("bsp: cost model %v is a QSM kind", cfg.Cost.Kind))
	}
	if err := cfg.Cost.Validate(cfg.P); err != nil {
		panic("bsp: " + err.Error())
	}
	routes := make([]route, 2*cfg.P) // both record columns, one allocation
	m := &Machine{
		p:        cfg.P,
		cost:     cfg.Cost,
		core:     engine.NewCore("bsp", cfg.Observer),
		cols:     engine.NewCols(cfg.P, cfg.Seed),
		off:      make([]int32, cfg.P+1),
		routes:   routes[:cfg.P:cfg.P],
		inRoutes: routes[cfg.P:],
	}
	m.ctx.m = m
	return m
}

// P returns the number of simulated processors.
func (m *Machine) P() int { return m.p }

// Cost returns the machine's cost model.
func (m *Machine) Cost() model.Cost { return m.cost }

// Time returns the accumulated simulated time.
func (m *Machine) Time() model.Time { return m.core.Time() }

// Supersteps returns the number of supersteps executed.
func (m *Machine) Supersteps() int { return m.core.Steps() }

// Ctx is the per-processor view of the current superstep. A Ctx is valid
// only inside the program function of the superstep it was passed to. The
// machine runs every program under one Ctx, resetting its processor id,
// work, sent flits, next free slot and order mark before each; queued sends
// go to the machine's send arena.
type Ctx struct {
	id        int
	work      int  // local work charged this superstep
	sent      int  // flits queued this superstep
	auto      int  // next free auto-assigned injection slot: the run's largest end
	unordered bool // a send started before the run's largest end
	m         *Machine
}

// ID returns this processor's index in [0, P).
func (c *Ctx) ID() int { return c.id }

// P returns the machine's processor count.
func (c *Ctx) P() int { return c.m.p }

// RNG returns this processor's private deterministic random source. The
// source persists across supersteps (it is derived lazily on first use,
// byte-for-byte identical to an eager per-processor split of the seed).
func (c *Ctx) RNG() *xrand.Source { return c.m.cols.RNG(c.id) }

// Charge records units of local computation performed this superstep.
func (c *Ctx) Charge(units int) {
	if units > 0 {
		c.work += units
	}
}

// Recv returns the messages delivered to this processor at the end of the
// previous superstep. The slice is owned by the engine and must not be
// retained past the program function.
func (c *Ctx) Recv() []Msg {
	return c.m.inboxView(c.id)
}

// Send enqueues msg to dst, assigning the message's flits to this
// processor's next free injection steps. Payload a is stored in Msg.A.
func (c *Ctx) Send(dst int, tag uint8, a int64) {
	c.SendMsg(dst, Msg{Tag: tag, A: a})
}

// SendMsg enqueues msg to dst at this processor's next free injection steps.
func (c *Ctx) SendMsg(dst int, msg Msg) {
	c.sendAt(c.auto, dst, &msg)
}

// SendAt enqueues msg to dst with its first flit injected at step slot
// (0-based within the superstep); a message of k flits occupies steps
// slot..slot+k-1 consecutively. At most one flit may be injected by a
// processor per step; violations are detected at superstep end and panic.
// A slot that is negative or above math.MaxInt32 panics at once.
func (c *Ctx) SendAt(slot, dst int, msg Msg) {
	c.sendAt(slot, dst, &msg)
}

// sendAt is the per-message hot path: it appends the message to the
// processor's run in the machine's send arena, its slot to the slot column,
// and adds it to its destination's route. msg is read through a pointer,
// field by field, so the caller's message is copied once, into the arena.
// The panics live in separate noinline functions, so their formatting stays
// off the hot path — enqueueing a message is a bounds check, one 40-byte
// arena entry and its 4-byte slot, one route update and a slot-cursor
// update. A send that starts before the run's largest end marks the run
// unordered; a run never marked is slot-sorted and non-overlapping.
func (c *Ctx) sendAt(slot, dst int, msg *Msg) {
	m := c.m
	if uint(slot) > math.MaxInt32 {
		c.badSlot(slot) // negative, or too wide for the slot column
	}
	if dst < 0 || dst >= m.p {
		c.badDst(dst)
	}
	fl := max(msg.Len, 1)
	n := len(m.sends)
	if n == cap(m.sends) {
		m.grow()
	}
	m.sends = m.sends[:n+1] // a self-reslice stores only the length
	s := &m.sends[n]
	s.Src = int32(c.id)
	s.Dst = int32(dst)
	s.Tag = msg.Tag
	s.Len = fl
	s.A, s.B, s.C = msg.A, msg.B, msg.C
	m.slots[n] = int32(slot)
	end := slot + int(fl)
	if end > len(m.hist) {
		m.growHist(end)
	}
	h := m.hist[slot:end]
	for f := range h {
		h[f]++
	}
	r := &m.routes[dst]
	if r.n != 0 && int32(dst) != m.last {
		m.scattered = true
	}
	m.last = int32(dst)
	r.n++
	r.end = int32(n + 1)
	r.flits += int(fl)
	m.hrecv = max(m.hrecv, r.flits)
	c.sent += int(fl)
	if slot < c.auto {
		c.unordered = true
	}
	if end > c.auto {
		c.auto = end
	}
}

// grow doubles the send arena mid-superstep, and grows the slot column with
// it, keeping the slots already written.
func (m *Machine) grow() {
	sends := make([]Msg, len(m.sends), max(2*cap(m.sends), 8))
	copy(sends, m.sends)
	m.sends = sends
	if len(m.slots) < cap(sends) {
		slots := make([]int32, cap(sends))
		copy(slots, m.slots[:len(sends)])
		m.slots = slots
	}
}

// growHist extends the histogram to end steps. Past its length the
// histogram's backing array is all zero — Superstep clears the steps the
// previous superstep used — so extending within capacity is a reslice.
func (m *Machine) growHist(end int) {
	if end > cap(m.hist) {
		hist := make([]int, end, max(2*cap(m.hist), end))
		copy(hist, m.hist)
		m.hist = hist
		return
	}
	m.hist = m.hist[:end]
}

//go:noinline
func (c *Ctx) badSlot(slot int) {
	if slot < 0 {
		panic(fmt.Sprintf("bsp: proc %d SendAt negative slot %d", c.id, slot))
	}
	panic(fmt.Sprintf("bsp: proc %d SendAt slot %d past the last injection step %d", c.id, slot, math.MaxInt32))
}

//go:noinline
func (c *Ctx) badDst(dst int) {
	panic(fmt.Sprintf("bsp: proc %d send to invalid dst %d (p=%d)", c.id, dst, c.m.p))
}

// Superstep executes fn for every processor, then synchronizes: messages are
// delivered, the superstep is costed under the machine's model, and the
// machine clock advances. It returns the superstep's Stats. The programs run
// for processors 0, 1, ..., P-1 in that order on the caller's goroutine; a
// panicking program panics Superstep with its own value, the processors
// after it do not run, and nothing is committed.
func (m *Machine) Superstep(fn func(c *Ctx)) Stats {
	m.sends = m.sends[:0]
	m.unordered = m.unordered[:0]
	clear(m.routes)
	clear(m.hist)
	m.hist = m.hist[:0]
	m.hrecv, m.scattered = 0, false
	c := &m.ctx
	var st Stats
	for i := range m.p {
		m.off[i] = int32(len(m.sends))
		c.id, c.work, c.sent, c.auto, c.unordered = i, 0, 0, 0, false
		fn(c)
		st.W = max(st.W, c.work)
		st.HSend = max(st.HSend, c.sent)
		st.N += c.sent
		st.Steps = max(st.Steps, c.auto)
		if c.unordered {
			m.unordered = append(m.unordered, int32(i))
		}
	}
	m.off[m.p] = int32(len(m.sends))
	view := m.merge(&st)
	m.core.Commit(view)
	return st
}

// insertionSortMax bounds the schedule length handled by the inlined
// insertion sort; longer schedules (a single processor streaming thousands
// of flits) fall back to the library sort.
const insertionSortMax = 32

// merge is the BSP merge strategy: it validates the injection schedules
// sent out of order, builds the per-step histogram, delivers the arena as
// the next inbox, and completes and costs st, whose W, HSend, N and Steps
// the program loop has already folded.
func (m *Machine) merge(st *Stats) engine.StepStats {
	// Schedule validation, on the unordered runs only: sort by start slot,
	// then reject overlapping [slot, slot+len) intervals — the model permits
	// one flit injection per processor per step. The list is in id order, so
	// the lowest-id bad processor panics. The short-run sort is inlined on
	// the two columns, so the loop makes no indirect calls.
	for _, i := range m.unordered {
		lo, hi := m.off[i], m.off[i+1]
		msgs, slots := m.sends[lo:hi], m.slots[lo:hi]
		if n := len(slots); n <= insertionSortMax {
			for a := 1; a < n; a++ {
				for j := a; j > 0 && slots[j] < slots[j-1]; j-- {
					slots[j], slots[j-1] = slots[j-1], slots[j]
					msgs[j], msgs[j-1] = msgs[j-1], msgs[j]
				}
			}
		} else {
			// Every message of the run has Src i, so the library sort
			// keys each by its slot parked in Src, and the sorted run
			// gives the slots back.
			for k := range msgs {
				msgs[k].Src = slots[k]
			}
			slices.SortFunc(msgs, func(a, b Msg) int { return cmp.Compare(a.Src, b.Src) })
			for k := range msgs {
				slots[k], msgs[k].Src = msgs[k].Src, i
			}
		}
		prevEnd := -1
		for k, slot := range slots {
			if int(slot) < prevEnd {
				panic(fmt.Sprintf("bsp: proc %d injects two flits in step %d (model allows one send initiation per step)", i, slot))
			}
			prevEnd = int(slot) + int(msgs[k].Len) // sendAt normalized Len >= 1
		}
	}

	// The per-step injection histogram was counted at send time and spans
	// st.Steps steps. It and every buffer are recycled across supersteps;
	// Recv slices are therefore only valid within their superstep, as
	// documented.
	hist := m.hist
	st.HRecv = m.hrecv
	st.H = max(st.HSend, st.HRecv)
	st.MaxSlot, st.Overload, st.CM = m.cost.Slots(hist)
	st.Cost = m.cost.BSPSuperstep(st.W, st.H, st.N, st.CM)

	// Delivery, in (destination, source processor, slot) order. When every
	// destination's messages are adjacent in the arena and every run is in
	// slot order, the arena is already in that order within each
	// destination, and the send-time routes already carve it: arena and
	// inbox swap. Otherwise an exclusive prefix sum over the message counts
	// turns each route's end into a placement cursor, a counting sort copies
	// the arena into the spare, and inbox and spare swap.
	n := len(m.sends)
	if m.scattered || len(m.unordered) > 0 {
		slab := slices.Grow(m.spare[:0], n)[:n]
		acc := int32(0)
		for d := range m.routes {
			r := &m.routes[d]
			r.end = acc
			acc += r.n
		}
		for k := range m.sends {
			s := &m.sends[k]
			r := &m.routes[s.Dst]
			slab[r.end] = *s
			r.end++
		}
		m.inbox, m.spare = slab, m.inbox
	} else {
		m.sends, m.inbox = m.inbox[:0], m.sends
	}
	m.routes, m.inRoutes = m.inRoutes, m.routes
	m.recycle(n)
	return engine.StepStats{
		W: st.W, H: st.H, N: st.N,
		Steps: st.Steps, MaxSlot: st.MaxSlot, Overload: st.Overload,
		CM: st.CM, Cost: st.Cost, Hist: hist,
	}
}

// decayAfter is the length of the low-utilization streak after which the
// machine releases message buffers sized for an earlier, larger superstep.
const decayAfter = 32

// recycle readies the arena and spare for the next superstep after one of
// n messages. One oversized superstep must not pin its peak for the
// machine's lifetime: after decayAfter consecutive supersteps using under a
// quarter of the largest buffer's capacity, each free buffer still above
// that is reallocated at twice the latest demand (the inbox in use is left
// alone and decays on a later superstep, once rotated out). A superstep at
// 25% utilization or more resets the streak, so steady-state supersteps
// never reallocate. The slot column only has to be as long as the arena
// about to be filled, which may be a smaller buffer rotated in from the
// inbox; its contents are dead once merged, so it is resized, not copied.
func (m *Machine) recycle(n int) {
	if 4*n >= max(cap(m.sends), cap(m.inbox), cap(m.spare)) {
		m.low = 0
	} else if m.low++; m.low >= decayAfter {
		if cap(m.sends) > 4*n {
			m.sends = make([]Msg, 0, 2*n)
		}
		if len(m.slots) > 4*n {
			m.slots = nil
		}
		if cap(m.spare) > 4*n {
			m.spare = make([]Msg, 0, 2*n)
		}
	}
	if len(m.slots) < cap(m.sends) {
		m.slots = make([]int32, cap(m.sends))
	}
}

// inboxView carves processor i's inbox out of the inbox buffer. The view is
// a three-index subslice (cap == len), so a caller's append past it
// reallocates rather than clobbering a neighboring inbox.
func (m *Machine) inboxView(i int) []Msg {
	r := &m.inRoutes[i]
	return m.inbox[r.end-r.n : r.end : r.end]
}

// Inbox returns processor i's current inbox (the messages it would see via
// Recv in the next superstep). Intended for drivers and tests.
func (m *Machine) Inbox(i int) []Msg { return m.inboxView(i) }
