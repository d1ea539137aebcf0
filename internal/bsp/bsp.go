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
package bsp

import (
	"fmt"
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

// send is a scheduled outgoing message: the message's flits occupy
// injection steps slot, slot+1, ..., slot+Flits-1 of the superstep.
type send struct {
	slot int
	msg  Msg
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
// carved into processor runs by an offset column, the per-destination counts
// are taken as the sends are queued, inboxes are an offset column over one
// routed message slab, and the random sources are a lazy engine.Cols column.
// Machine memory is O(p) flat words plus O(1) objects — never O(p) objects.
type Machine struct {
	p    int
	cost model.Cost
	core *engine.Core
	cols *engine.Cols

	// sends is the send arena, recycled across supersteps: processors run
	// in ascending order and each appends its sends, so the arena is every
	// processor's run concatenated in processor order, and processor i's run
	// is sends[off[i]:off[i+1]] (off has length p+1). ctx is the one Ctx
	// every program runs under.
	sends []send
	off   []int32
	ctx   Ctx

	// recv and dests are the per-destination flit and message counts
	// (length p), added to by every send and cleared when a superstep
	// starts. unordered lists, in id order, the processors whose runs were
	// sent out of slot order: the only runs the merge sorts and checks.
	recv, dests []int
	unordered   []int32

	// inbox is the current routed message slab in destination order; inOff
	// (length p+1) carves it into per-destination views, spareOff is the
	// column the next merge fills before the swap. slabs double-buffer the
	// storage: the inbox of the superstep in flight is never overwritten by
	// the merge that builds the next one. cur indexes the slab backing inbox.
	inbox    []Msg
	inOff    []int32
	spareOff []int32
	slabs    [2]engine.Slab[Msg]
	cur      int
}

// New constructs a Machine. It panics on invalid configuration.
func New(cfg Config) *Machine {
	if cfg.Cost.SharedMemory() {
		panic(fmt.Sprintf("bsp: cost model %v is a QSM kind", cfg.Cost.Kind))
	}
	if err := cfg.Cost.Validate(cfg.P); err != nil {
		panic("bsp: " + err.Error())
	}
	m := &Machine{
		p:        cfg.P,
		cost:     cfg.Cost,
		core:     engine.NewCore("bsp", cfg.Observer),
		cols:     engine.NewCols(cfg.P, cfg.Seed),
		off:      make([]int32, cfg.P+1),
		recv:     make([]int, cfg.P),
		dests:    make([]int, cfg.P),
		inOff:    make([]int32, cfg.P+1),
		spareOff: make([]int32, cfg.P+1),
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
func (c *Ctx) SendAt(slot, dst int, msg Msg) {
	c.sendAt(slot, dst, &msg)
}

// sendAt is the per-message hot path: it appends the message to the
// processor's run in the machine's send arena and counts it. msg is read
// through a pointer, field by field, so the caller's message is copied once,
// into the arena entry. The panics live in separate noinline functions, so
// their formatting stays off the hot path — enqueueing a message is a
// bounds check, one arena entry (48 bytes on a 64-bit host), three count
// updates and a slot-cursor update. A send that starts before the run's largest end marks
// the run unordered; a run never marked is slot-sorted and non-overlapping.
func (c *Ctx) sendAt(slot, dst int, msg *Msg) {
	m := c.m
	if slot < 0 {
		c.badSlot(slot) // only SendAt passes a slot that can be negative
	}
	if dst < 0 || dst >= m.p {
		c.badDst(dst)
	}
	fl := max(msg.Len, 1)
	n := len(m.sends)
	if n == cap(m.sends) {
		m.sends = append(m.sends, send{})
	} else {
		m.sends = m.sends[:n+1] // a self-reslice stores only the length
	}
	s := &m.sends[n]
	s.slot = slot
	s.msg.Src = int32(c.id)
	s.msg.Dst = int32(dst)
	s.msg.Tag = msg.Tag
	s.msg.Len = fl
	s.msg.A, s.msg.B, s.msg.C = msg.A, msg.B, msg.C
	m.recv[dst] += int(fl)
	m.dests[dst]++
	c.sent += int(fl)
	if slot < c.auto {
		c.unordered = true
	}
	if end := slot + int(fl); end > c.auto {
		c.auto = end
	}
}

//go:noinline
func (c *Ctx) badSlot(slot int) {
	panic(fmt.Sprintf("bsp: proc %d SendAt negative slot %d", c.id, slot))
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
	clear(m.recv)
	clear(m.dests)
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
// sent out of order, builds the per-step histogram, counting-sorts messages
// into the next inbox slab, and completes and costs st, whose W, HSend, N
// and Steps the program loop has already folded.
func (m *Machine) merge(st *Stats) engine.StepStats {
	// Schedule validation, on the unordered runs only: sort by start slot,
	// then reject overlapping [slot, slot+len) intervals — the model permits
	// one flit injection per processor per step. The list is in id order, so
	// the lowest-id bad processor panics. The sort and the overlap check are
	// inlined on the concrete send type, so the loop makes no indirect calls.
	for _, i := range m.unordered {
		sends := m.sends[m.off[i]:m.off[i+1]]
		if n := len(sends); n <= insertionSortMax {
			for a := 1; a < n; a++ {
				for j := a; j > 0 && sends[j].slot < sends[j-1].slot; j-- {
					sends[j], sends[j-1] = sends[j-1], sends[j]
				}
			}
		} else {
			slices.SortFunc(sends, func(a, b send) int { return a.slot - b.slot })
		}
		prevEnd := -1
		for k := range sends {
			s := &sends[k]
			if s.slot < prevEnd {
				panic(fmt.Sprintf("bsp: proc %d injects two flits in step %d (model allows one send initiation per step)", i, s.slot))
			}
			prevEnd = s.slot + int(s.msg.Len) // sendAt normalized Len >= 1
		}
	}

	// Bucket layout: exclusive prefix sum over the per-destination message
	// counts turns them into placement cursors and fills the spare offset
	// column that will carve per-destination inbox views out of the flat
	// slab; the same pass finds the largest per-destination flit count. The
	// slab, histogram, count and offset columns are all recycled across
	// supersteps; Recv slices are therefore only valid within their
	// superstep, as documented.
	hist := m.core.Hist(st.Steps)
	slab := m.slabs[1-m.cur].Take(len(m.sends))
	nextOff, recv, cnt := m.spareOff, m.recv, m.dests
	acc := 0
	for d := 0; d < m.p; d++ {
		nextOff[d] = int32(acc)
		k := cnt[d]
		cnt[d] = acc
		acc += k
		st.HRecv = max(st.HRecv, recv[d])
	}
	nextOff[m.p] = int32(acc)

	// Pass 2: the per-step injection histogram and the counting-sort
	// placement. Every message's slab position is determined by the
	// precomputed cursors — (destination, then source processor, then slot
	// order within the processor) — exactly the delivery order the old
	// append-per-destination routing produced. The arena is the processors'
	// runs concatenated in (processor, slot-sorted) order, so the pass scans
	// it linearly.
	for k := range m.sends {
		s := &m.sends[k]
		end := s.slot + int(s.msg.Len)
		for f := s.slot; f < end; f++ {
			hist[f]++
		}
		d := int(s.msg.Dst)
		slab[cnt[d]] = s.msg
		cnt[d]++
	}
	st.H = max(st.HSend, st.HRecv)
	global, budget := m.cost.Global(), m.cost.M // once per merge, not per slot
	for _, mt := range hist {
		if mt > st.MaxSlot {
			st.MaxSlot = mt
		}
		if global && mt > budget {
			st.Overload++
		}
	}
	if m.cost.Kind == model.KindBSPm {
		st.CM = m.cost.CM(hist)
	}
	st.Cost = m.cost.BSPSuperstep(st.W, st.H, st.N, st.CM)

	m.inbox = slab
	m.inOff, m.spareOff = m.spareOff, m.inOff
	m.cur = 1 - m.cur
	return engine.StepStats{
		W: st.W, H: st.H, N: st.N,
		Steps: st.Steps, MaxSlot: st.MaxSlot, Overload: st.Overload,
		CM: st.CM, Cost: st.Cost, Hist: hist,
	}
}

// inboxView carves processor i's inbox out of the routed slab. The view is
// a three-index subslice (cap == len), so a caller's append past it
// reallocates rather than clobbering a neighboring bucket.
func (m *Machine) inboxView(i int) []Msg {
	lo, hi := m.inOff[i], m.inOff[i+1]
	return m.inbox[lo:hi:hi]
}

// Inbox returns processor i's current inbox (the messages it would see via
// Recv in the next superstep). Intended for drivers and tests.
func (m *Machine) Inbox(i int) []Msg { return m.inboxView(i) }
