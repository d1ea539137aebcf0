// Package bsp simulates bulk-synchronous message-passing machines under the
// locally-limited BSP(g) and globally-limited BSP(m) cost models of Adler,
// Gibbons, Matias & Ramachandran (SPAA 1997), as well as the paper's
// self-scheduling BSP(m) variant.
//
// A Machine owns p simulated processors. An algorithm is a sequence of calls
// to Machine.Superstep, each executing a per-processor program concurrently
// (on a bounded worker pool) and then performing the bulk synchronization:
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
// The superstep loop itself — context lifecycle, worker-pool fan-out, clock
// commit, observer fan-out — lives in internal/engine; this
// package contributes the BSP-specific merge strategy (schedule validation,
// message routing, cost accounting).
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
	// Workers bounds the host-CPU parallelism used to execute processor
	// programs; <= 0 selects GOMAXPROCS.
	Workers int
	// Observer, if non-nil, receives a normalized engine.StepStats callback
	// after every superstep (Machine.Attach adds more).
	Observer engine.Observer
}

// Machine is a simulated BSP machine. Methods must be called from a single
// driver goroutine; the per-processor programs passed to Superstep run
// concurrently with each other but never concurrently with the driver.
//
// Per-processor state is columnar: counters and cursors live in flat
// engine.Cols arrays indexed by processor id, queued sends live in O(cores)
// chunk-local arenas addressed by the Off/Cnt columns, and inboxes are
// offset columns over one routed message slab. A Ctx is a thin
// index-plus-pointer view over that state, so machine memory is O(p) flat
// words plus O(cores) objects — never O(p) objects.
type Machine struct {
	p    int
	cost model.Cost
	core *engine.Core[Stats]
	cols *engine.Cols

	// shards are the chunk-local send arenas: chunk r of the fan-out (the
	// contiguous processors [r·width, (r+1)·width)) appends its sends to
	// shards[r].buf, recycled across supersteps. Each shard also carries the
	// one Ctx its chunk's programs share, so live per-step state is O(cores).
	width  int
	shards []shard

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

	// fn is the program of the superstep in flight; body and mergeFn are the
	// closures handed to the engine core, built once so that Superstep itself
	// is allocation-free.
	fn      func(c *Ctx)
	body    func(lo, hi int)
	mergeFn func() (Stats, engine.StepStats)
}

// shard is one chunk's recycled send arena plus the Ctx view its programs
// run under. Chunks are disjoint contiguous processor ranges, so a shard is
// only ever touched by the one goroutine running its chunk.
type shard struct {
	buf []send
	ctx Ctx
	_   engine.CacheLinePad // keep workers' shards on separate cache lines
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
		core:     engine.NewCore[Stats]("bsp", cfg.P, cfg.Workers),
		cols:     engine.NewCols(cfg.P, cfg.Seed),
		inOff:    make([]int32, cfg.P+1),
		spareOff: make([]int32, cfg.P+1),
	}
	m.core.Attach(cfg.Observer)
	width, chunks := m.core.ChunkPlan(cfg.P)
	m.width = width
	m.shards = make([]shard, chunks)
	for r := range m.shards {
		m.shards[r].ctx = Ctx{m: m, sh: &m.shards[r]}
	}
	m.body = func(lo, hi int) {
		sh := &m.shards[lo/m.width]
		sh.buf = sh.buf[:0]
		c := &sh.ctx
		cols := m.cols
		for i := lo; i < hi; i++ {
			cols.ResetProc(i)
			cols.Off[i] = int32(len(sh.buf))
			cols.Cnt[i] = 0
			c.id = i
			m.fn(c)
		}
	}
	m.mergeFn = m.merge
	return m
}

// P returns the number of simulated processors.
func (m *Machine) P() int { return m.p }

// Cost returns the machine's cost model.
func (m *Machine) Cost() model.Cost { return m.cost }

// L returns the machine's periodicity parameter.
func (m *Machine) L() int { return m.cost.L }

// Time returns the accumulated simulated time.
func (m *Machine) Time() model.Time { return m.core.Time() }

// Supersteps returns the number of supersteps executed.
func (m *Machine) Supersteps() int { return m.core.Steps() }

// Attach registers an observer for this machine's supersteps.
func (m *Machine) Attach(obs engine.Observer) { m.core.Attach(obs) }

// ChargeTime adds t units of simulated time outside any superstep. It is
// used by protocols whose analysis charges fixed terms (for example a known
// constant broadcast cost) without simulating them step by step.
func (m *Machine) ChargeTime(t model.Time) { m.core.ChargeTime(t) }

// Ctx is the per-processor view of the current superstep. A Ctx is valid
// only inside the program function of the superstep it was passed to. It is
// a thin index-plus-pointer view: the state it reads and writes lives in
// the machine's columnar arrays and its chunk's send arena.
type Ctx struct {
	id int
	m  *Machine
	sh *shard
}

// ID returns this processor's index in [0, P).
func (c *Ctx) ID() int { return c.id }

// P returns the machine's processor count.
func (c *Ctx) P() int { return c.m.p }

// L returns the machine's periodicity parameter.
func (c *Ctx) L() int { return c.m.cost.L }

// RNG returns this processor's private deterministic random source. The
// source persists across supersteps (it is derived lazily on first use,
// byte-for-byte identical to an eager per-processor split of the seed).
func (c *Ctx) RNG() *xrand.Source { return c.m.cols.RNG(c.id) }

// Charge records units of local computation performed this superstep.
func (c *Ctx) Charge(units int) {
	if units > 0 {
		c.m.cols.Work[c.id] += units
	}
}

// Recv returns the messages delivered to this processor at the end of the
// previous superstep. The slice is owned by the engine and must not be
// retained past the program function.
func (c *Ctx) Recv() []Msg {
	c.m.cols.RecvUsed[c.id] = true
	return c.m.inboxView(c.id)
}

// Send enqueues msg to dst, assigning the message's flits to this
// processor's next free injection steps. Payload a is stored in Msg.A.
func (c *Ctx) Send(dst int, tag uint8, a int64) {
	c.SendMsg(dst, Msg{Tag: tag, A: a})
}

// SendMsg enqueues msg to dst at this processor's next free injection steps.
func (c *Ctx) SendMsg(dst int, msg Msg) {
	c.sendAt(c.m.cols.AutoSlot[c.id], dst, msg)
}

// SendAt enqueues msg to dst with its first flit injected at step slot
// (0-based within the superstep); a message of k flits occupies steps
// slot..slot+k-1 consecutively. At most one flit may be injected by a
// processor per step; violations are detected at superstep end and panic.
func (c *Ctx) SendAt(slot, dst int, msg Msg) {
	if slot < 0 {
		panic(fmt.Sprintf("bsp: proc %d SendAt negative slot %d", c.id, slot))
	}
	c.sendAt(slot, dst, msg)
}

// sendAt is the per-message hot path: it normalizes the message and appends
// it to the processor's run in the chunk's send arena. The
// invalid-destination panic lives in a separate function so sendAt stays
// within the inlining budget — enqueueing a message is a bounds check plus
// one 56-byte arena append and two column stores.
func (c *Ctx) sendAt(slot, dst int, msg Msg) {
	if dst < 0 || dst >= c.m.p {
		c.badDst(dst)
	}
	buf := c.sh.buf
	n := len(buf)
	if n == cap(buf) {
		buf = append(buf, send{})
	} else {
		buf = buf[:n+1]
	}
	s := &buf[n]
	s.slot = slot
	s.msg = msg
	s.msg.Src = int32(c.id)
	s.msg.Dst = int32(dst)
	if msg.Len <= 0 {
		s.msg.Len = 1
	}
	c.sh.buf = buf
	cols := c.m.cols
	cols.Cnt[c.id]++
	if end := slot + int(s.msg.Len); end > cols.AutoSlot[c.id] {
		cols.AutoSlot[c.id] = end
	}
}

//go:noinline
func (c *Ctx) badDst(dst int) {
	panic(fmt.Sprintf("bsp: proc %d send to invalid dst %d (p=%d)", c.id, dst, c.m.p))
}

// Superstep executes fn for every processor, then synchronizes: messages are
// delivered, the superstep is costed under the machine's model, and the
// machine clock advances. It returns the superstep's Stats.
func (m *Machine) Superstep(fn func(c *Ctx)) Stats {
	m.fn = fn
	st := m.core.Step(m.body, m.mergeFn)
	m.fn = nil
	return st
}

// insertionSortMax bounds the schedule length handled by the inlined
// insertion sort; longer schedules (a single processor streaming thousands
// of flits) fall back to the library sort.
const insertionSortMax = 32

// parallelRouteMin is the per-superstep message count below which the
// destination-sharded parallel routing passes are not worth their fan-out
// overhead (a variable so tests can force either path).
var parallelRouteMin = 2048

// parallelRouteGrid caps the parallel router's chunk×destination count
// matrix at this multiple of the step's message count: above it, the O(
// chunks·p) grid would dominate the work (and, at p in the millions, the
// memory), so the serial placement — O(total + p) — wins. A variable so
// tests can force either path.
var parallelRouteGrid = 4

// merge is the BSP merge strategy: it validates injection schedules, builds
// the per-step histogram, counting-sorts messages into the next inbox slab,
// and computes the cost.
func (m *Machine) merge() (Stats, engine.StepStats) {
	var st Stats

	// Pass 1, fused: per-processor schedule validation (sort by start slot,
	// then reject overlapping [slot, slot+len) intervals — the model permits
	// one flit injection per processor per step) together with the size
	// accounting and the per-destination message/flit counts the router
	// needs. After a valid sort the interval ends are monotone, so the
	// processor's step span is simply the last interval's end. The sort and
	// the overlap check are inlined on the concrete send type: the generic
	// closure-based engine.CheckSchedule was the hottest single item in the
	// pre-rework merge profile. Processors are walked shard by shard —
	// shards hold contiguous ascending processor ranges, so this is
	// processor order without a per-processor division.
	recv := m.core.Ledger() // flits destined per processor
	cnt := m.core.Offsets() // messages destined per processor
	cols := m.cols
	maxStep := 0
	total := 0            // messages this superstep
	sh, end := 0, m.width // processor i's shard and the first processor past it
	for i := 0; i < m.p; i++ {
		if w := cols.Work[i]; w > st.W {
			st.W = w
		}
		if i == end {
			sh++
			end += m.width
		}
		off := cols.Off[i]
		sends := m.shards[sh].buf[off : off+cols.Cnt[i]]
		if n := len(sends); n > 1 {
			if n <= insertionSortMax {
				for a := 1; a < n; a++ {
					for j := a; j > 0 && sends[j].slot < sends[j-1].slot; j-- {
						sends[j], sends[j-1] = sends[j-1], sends[j]
					}
				}
			} else {
				slices.SortFunc(sends, func(a, b send) int { return a.slot - b.slot })
			}
		}
		sent := 0
		prevEnd := -1
		for k := range sends {
			s := &sends[k]
			fl := int(s.msg.Len) // sendAt normalized Len >= 1
			if s.slot < prevEnd {
				panic(fmt.Sprintf("bsp: proc %d injects two flits in step %d (model allows one send initiation per step)", i, s.slot))
			}
			prevEnd = s.slot + fl
			sent += fl
			d := int(s.msg.Dst)
			recv[d] += fl
			cnt[d]++
		}
		if prevEnd > maxStep {
			maxStep = prevEnd
		}
		if sent > st.HSend {
			st.HSend = sent
		}
		st.N += sent
		total += len(sends)
	}
	st.Steps = maxStep

	// Bucket layout: exclusive prefix sum over the per-destination counts
	// turns them into placement cursors and fills the spare offset column
	// that will carve per-destination inbox views out of the flat slab. The
	// slab, histogram, ledger and offset columns are all recycled across
	// supersteps; Recv slices are therefore only valid within their
	// superstep, as documented.
	hist := m.core.Hist(maxStep)
	slab := m.slabs[1-m.cur].Take(total)
	nextOff := m.spareOff
	acc := 0
	for d := 0; d < m.p; d++ {
		nextOff[d] = int32(acc)
		k := cnt[d]
		cnt[d] = acc
		acc += k
	}
	nextOff[m.p] = int32(acc)

	// Pass 2: the per-step injection histogram and the counting-sort
	// placement. Every message's slab position is determined by the
	// precomputed cursors — (destination, then source processor, then slot
	// order within the processor) — exactly the delivery order the old
	// append-per-destination routing produced. Large steps on a
	// multi-worker machine take the destination-sharded parallel passes
	// instead; they compute the same positions chunk-locally, so the slab
	// contents are byte-identical either way. A shard's arena is its
	// processors' runs concatenated in (processor, slot-sorted) order, so the
	// serial pass scans the arenas linearly.
	if m.core.Workers() > 1 && total >= parallelRouteMin && m.gridFits(maxStep, total) {
		m.routeParallel(slab, hist, cnt)
	} else {
		for sh := range m.shards {
			sends := m.shards[sh].buf
			for k := range sends {
				s := &sends[k]
				end := s.slot + int(s.msg.Len)
				for f := s.slot; f < end; f++ {
					hist[f]++
				}
				d := int(s.msg.Dst)
				slab[cnt[d]] = s.msg
				cnt[d]++
			}
		}
	}
	for _, r := range recv {
		if r > st.HRecv {
			st.HRecv = r
		}
	}
	st.H = st.HSend
	if st.HRecv > st.H {
		st.H = st.HRecv
	}
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
	st.Cost = m.cost.BSPSuperstep(st.W, st.H, st.N, hist)

	m.inbox = slab
	m.inOff, m.spareOff = m.spareOff, m.inOff
	m.cur = 1 - m.cur
	return st, engine.StepStats{
		W: st.W, H: st.H, N: st.N,
		Steps: st.Steps, MaxSlot: st.MaxSlot, Overload: st.Overload,
		CM: st.CM, Cost: st.Cost, Hist: hist,
	}
}

// gridFits reports whether the parallel router's chunk×destination count
// matrix is small enough relative to the step's traffic to be worth
// building. At bench-scale machines (hundreds of processors) it always is;
// at p in the millions a sparse step would spend more on the grid than on
// the messages, so the serial placement runs instead. Either path produces
// a byte-identical slab.
func (m *Machine) gridFits(nh, total int) bool {
	return len(m.shards)*(m.p+nh) <= parallelRouteGrid*total
}

// routeParallel is the destination-sharded routing used for large steps on
// multi-worker machines: each worker chunk counts its own messages per
// destination and its own injection histogram into a recycled
// chunk×destination grid (no global map, no locks), a serial reduce turns
// the chunk counts into exact slab positions (bucket start + messages the
// earlier chunks place in that bucket), and a second parallel pass writes
// every message to its precomputed position. The fan-out chunks coincide
// with the send shards, and a shard's arena is its processors' runs
// concatenated in (processor, slot-sorted) order, so the passes scan each
// arena linearly. Positions depend only on (processor order, slot order
// within processor), never on worker scheduling, so the slab is
// byte-identical to the serial path for any worker count.
func (m *Machine) routeParallel(slab []Msg, hist []int, cur []int) {
	p := m.p
	nh := len(hist)
	width, chunks := m.width, len(m.shards)
	grid := m.core.Grid(chunks * (p + nh))
	cnts := grid[:chunks*p]
	hists := grid[chunks*p:]

	m.core.ForChunks(p, func(lo, hi int) {
		r := lo / width
		crow := cnts[r*p : (r+1)*p]
		hrow := hists[r*nh : (r+1)*nh]
		sends := m.shards[r].buf
		for k := range sends {
			s := &sends[k]
			end := s.slot + int(s.msg.Len)
			for f := s.slot; f < end; f++ {
				hrow[f]++
			}
			crow[int(s.msg.Dst)]++
		}
	})

	for t := 0; t < nh; t++ {
		sum := 0
		for r := 0; r < chunks; r++ {
			sum += hists[r*nh+t]
		}
		hist[t] = sum
	}
	for d := 0; d < p; d++ {
		s := cur[d]
		for r := 0; r < chunks; r++ {
			k := cnts[r*p+d]
			cnts[r*p+d] = s
			s += k
		}
	}

	m.core.ForChunks(p, func(lo, hi int) {
		r := lo / width
		crow := cnts[r*p : (r+1)*p]
		sends := m.shards[r].buf
		for k := range sends {
			d := int(sends[k].msg.Dst)
			slab[crow[d]] = sends[k].msg
			crow[d]++
		}
	})
}

// inboxView carves processor i's inbox out of the routed slab. The view is
// a three-index subslice (cap == len), so an append past it — Deliver's old
// behavior, or a misbehaving caller — reallocates rather than clobbering a
// neighboring bucket.
func (m *Machine) inboxView(i int) []Msg {
	lo, hi := m.inOff[i], m.inOff[i+1]
	return m.inbox[lo:hi:hi]
}

// Inbox returns processor i's current inbox (the messages it would see via
// Recv in the next superstep). Intended for drivers and tests.
func (m *Machine) Inbox(i int) []Msg { return m.inboxView(i) }

// Deliver injects messages directly into inboxes without cost, bypassing
// the network. It models free input distribution in experiments whose
// problem statement places inputs at processors (and is also convenient in
// tests). The inbox slab is destination-ordered, so Deliver rebuilds it
// with the new messages appended to their destinations' buckets (existing
// messages first, then the new ones in argument order); it is a setup path
// and may allocate.
func (m *Machine) Deliver(msgs []Msg) {
	for _, msg := range msgs {
		if d := int(msg.Dst); d < 0 || d >= m.p {
			panic(fmt.Sprintf("bsp: Deliver to invalid dst %d", d))
		}
	}
	add := make([]int32, m.p+1)
	for _, msg := range msgs {
		add[msg.Dst]++
	}
	merged := make([]Msg, len(m.inbox)+len(msgs))
	newOff := make([]int32, m.p+1)
	acc := int32(0)
	for d := 0; d < m.p; d++ {
		newOff[d] = acc
		acc += m.inOff[d+1] - m.inOff[d] + add[d]
	}
	newOff[m.p] = acc
	// Place existing bucket contents, then the new messages in argument
	// order; add[] doubles as the per-destination write cursor.
	for d := 0; d < m.p; d++ {
		add[d] = newOff[d] + int32(copy(merged[newOff[d]:], m.inbox[m.inOff[d]:m.inOff[d+1]]))
	}
	for _, msg := range msgs {
		merged[add[msg.Dst]] = msg
		add[msg.Dst]++
	}
	m.inbox = merged
	m.inOff = newOff
}

// Reset clears inboxes and time, preserving processors and RNG state.
func (m *Machine) Reset() {
	m.inbox = nil
	for i := range m.inOff {
		m.inOff[i] = 0
		m.spareOff[i] = 0
	}
	m.core.ResetClock()
}
