// Package qsm simulates the Queuing Shared Memory machines of Gibbons,
// Matias & Ramachandran under the locally-limited QSM(g) and the
// globally-limited QSM(m) cost models of the SPAA 1997 bandwidth paper.
//
// A Machine owns p processors and a flat shared memory of int64 words.
// An algorithm is a sequence of Phase calls. Within a phase each processor
// may read and write shared-memory locations and perform local computation;
// reads observe the memory as of the start of the phase (the model specifies
// that a value returned by a read is usable only in a subsequent phase — the
// engine realizes this by buffering all writes until the end of the phase),
// and concurrent writes to one location are resolved by the Arbitrary rule.
// Reading and writing the same location within one phase is a model
// violation and panics.
//
// Cost per phase: QSM(g) charges max(w, g·h, κ); QSM(m) charges
// max(w, h, κ, c_m) where c_m is computed from the exact per-step request
// histogram (processors schedule requests into steps via ReadAt/WriteAt, at
// most one request per processor per step).
//
// Each processor's program runs on the caller's goroutine, one processor at
// a time in ascending id order. The phase loop itself — context lifecycle,
// the per-processor program loop, clock commit, observer fan-out — lives in
// internal/engine; this package
// contributes the QSM-specific merge strategy (request validation,
// contention accounting, write resolution, cost accounting).
package qsm

import (
	"fmt"
	"slices"

	"parbw/internal/engine"
	"parbw/internal/model"
	"parbw/internal/xrand"
)

// Stats describes one executed phase.
type Stats struct {
	W        int        // maximum local work over processors
	H        int        // max over processors of max(reads, writes), at least 1
	Reads    int        // total read requests
	Writes   int        // total write requests
	Kappa    int        // maximum per-location contention
	Steps    int        // number of request steps spanned
	MaxSlot  int        // maximum per-step request count
	Overload int        // steps with more than m requests (QSM(m) only)
	CM       model.Time // c_m (QSM(m) only)
	Cost     model.Time // phase cost under the machine's model
}

// Config configures a Machine with an explicit model.Cost (model.QSMg or
// model.QSMm).
type Config struct {
	P    int        // processors
	Mem  int        // shared-memory words
	Cost model.Cost // must be a QSM kind
	Seed uint64
	// Observer, if non-nil, receives a normalized engine.StepStats callback
	// after every phase. It is the only way to observe the machine.
	Observer engine.Observer
}

// request is a buffered shared-memory access.
type request struct {
	slot  int
	addr  int
	val   int64
	write bool
}

// Machine is a simulated QSM machine. Methods must be called from a single
// driver goroutine.
//
// Per-processor state is columnar: counters and cursors live in flat
// engine.Cols arrays indexed by processor id, and buffered requests live in
// one arena addressed by the Off/Cnt columns, so machine memory is O(p) flat
// words plus O(1) objects — never O(p) objects.
type Machine struct {
	p    int
	mem  []int64
	cost model.Cost
	core *engine.Core[Stats]
	cols *engine.Cols

	// reqs is the request arena, recycled across phases: processors run in
	// ascending order and each appends its requests, so the arena is every
	// processor's run concatenated in processor order. ctx is the one Ctx
	// every program runs under.
	reqs []request
	ctx  Ctx

	// scratch contention counters indexed by address, plus the touched
	// addresses of the current phase, reused across phases
	rdCount, wrCount []int
	touched          []int

	// fn is the program of the phase in flight; body and mergeFn are the
	// closures handed to the engine core, built once so that Phase itself is
	// allocation-free.
	fn      func(c *Ctx)
	body    func(i int)
	mergeFn func() (Stats, engine.StepStats)
}

// New constructs a Machine. It panics on invalid configuration.
func New(cfg Config) *Machine {
	if !cfg.Cost.SharedMemory() {
		panic(fmt.Sprintf("qsm: cost model %v is not a QSM kind", cfg.Cost.Kind))
	}
	if err := cfg.Cost.Validate(cfg.P); err != nil {
		panic("qsm: " + err.Error())
	}
	if cfg.Mem < 1 {
		panic("qsm: Mem must be >= 1")
	}
	m := &Machine{
		p:       cfg.P,
		mem:     make([]int64, cfg.Mem),
		cost:    cfg.Cost,
		core:    engine.NewCore[Stats]("qsm", cfg.P),
		cols:    engine.NewCols(cfg.P, cfg.Seed),
		rdCount: make([]int, cfg.Mem),
		wrCount: make([]int, cfg.Mem),
	}
	m.core.Attach(cfg.Observer)
	m.ctx.m = m
	m.body = func(i int) {
		m.cols.ResetProc(i)
		m.cols.Off[i] = int32(len(m.reqs))
		m.cols.Cnt[i] = 0
		m.ctx.id = i
		m.fn(&m.ctx)
	}
	m.mergeFn = m.merge
	return m
}

// P returns the processor count.
func (m *Machine) P() int { return m.p }

// Mem returns the shared-memory size in words.
func (m *Machine) Mem() int { return len(m.mem) }

// Cost returns the machine's cost model.
func (m *Machine) Cost() model.Cost { return m.cost }

// Time returns the accumulated simulated time.
func (m *Machine) Time() model.Time { return m.core.Time() }

// Phases returns the number of phases executed.
func (m *Machine) Phases() int { return m.core.Steps() }

// ChargeTime adds simulated time outside any phase.
func (m *Machine) ChargeTime(t model.Time) { m.core.ChargeTime(t) }

// Load reads shared memory directly, free of model charge (setup and
// inspection only).
func (m *Machine) Load(addr int) int64 { return m.mem[addr] }

// Store writes shared memory directly, free of model charge (input placement
// and tests only).
func (m *Machine) Store(addr int, val int64) { m.mem[addr] = val }

// Ctx is the per-processor view of the current phase. It is a thin
// index-plus-pointer view: the state it reads and writes lives in the
// machine's columnar arrays and its request arena.
type Ctx struct {
	id int
	m  *Machine
}

// ID returns this processor's index.
func (c *Ctx) ID() int { return c.id }

// P returns the machine's processor count.
func (c *Ctx) P() int { return c.m.p }

// RNG returns this processor's private deterministic random source. The
// source persists across phases (it is derived lazily on first use,
// byte-for-byte identical to an eager per-processor split of the seed).
func (c *Ctx) RNG() *xrand.Source { return c.m.cols.RNG(c.id) }

// Charge records units of local computation performed this phase.
func (c *Ctx) Charge(units int) {
	if units > 0 {
		c.m.cols.Work[c.id] += units
	}
}

// Read issues a read of addr in this processor's next free request step and
// returns the value the location held at the start of the phase.
func (c *Ctx) Read(addr int) int64 { return c.ReadAt(c.m.cols.AutoSlot[c.id], addr) }

// ReadAt issues a read of addr in request step slot.
func (c *Ctx) ReadAt(slot, addr int) int64 {
	c.addReq(slot, addr, 0, false)
	return c.m.mem[addr]
}

// Write issues a write of val to addr in this processor's next free request
// step. The write takes effect at the end of the phase; concurrent writers
// to one location are resolved by the Arbitrary rule (in this engine, the
// highest-numbered writing processor deterministically wins).
func (c *Ctx) Write(addr int, val int64) { c.WriteAt(c.m.cols.AutoSlot[c.id], addr, val) }

// WriteAt issues a write in request step slot.
func (c *Ctx) WriteAt(slot, addr int, val int64) {
	c.addReq(slot, addr, val, true)
}

// addReq is the per-request hot path; the panics live in separate functions
// so that it stays within the inlining budget, and the request is written in
// place in the machine's arena rather than appended by value.
func (c *Ctx) addReq(slot, addr int, val int64, write bool) {
	if slot < 0 {
		c.badSlot(slot)
	}
	if addr < 0 || addr >= len(c.m.mem) {
		c.badAddr(addr)
	}
	buf := c.m.reqs
	n := len(buf)
	if n == cap(buf) {
		buf = append(buf, request{})
	} else {
		buf = buf[:n+1]
	}
	r := &buf[n]
	r.slot = slot
	r.addr = addr
	r.val = val
	r.write = write
	c.m.reqs = buf
	cols := c.m.cols
	cols.Cnt[c.id]++
	if slot+1 > cols.AutoSlot[c.id] {
		cols.AutoSlot[c.id] = slot + 1
	}
}

//go:noinline
func (c *Ctx) badSlot(slot int) {
	panic(fmt.Sprintf("qsm: proc %d request at negative slot %d", c.id, slot))
}

//go:noinline
func (c *Ctx) badAddr(addr int) {
	panic(fmt.Sprintf("qsm: proc %d access to invalid address %d (mem=%d)", c.id, addr, len(c.m.mem)))
}

// Phase executes fn for every processor, applies buffered writes, computes
// contention and cost, and advances the clock. It returns the phase Stats.
func (m *Machine) Phase(fn func(c *Ctx)) Stats {
	m.fn = fn
	m.reqs = m.reqs[:0]
	st := m.core.Step(m.body, m.mergeFn)
	m.fn = nil
	return st
}

// insertionSortMax bounds the request-schedule length handled by the
// inlined insertion sort; longer schedules fall back to the library sort.
const insertionSortMax = 32

// merge is the QSM merge strategy: it validates request schedules, computes
// contention κ, applies buffered writes, and prices the phase. Processors
// are walked in ascending id order via their arena runs, which fixes every
// order-sensitive outcome (the Arbitrary write rule, panic attribution).
func (m *Machine) merge() (Stats, engine.StepStats) {
	var st Stats
	m.touched = m.touched[:0]
	cols := m.cols

	maxStep := 0
	for i := 0; i < m.p; i++ {
		if w := cols.Work[i]; w > st.W {
			st.W = w
		}
		off := cols.Off[i]
		reqs := m.reqs[off : off+cols.Cnt[i]]
		nr, nw := 0, 0
		for k := range reqs {
			if reqs[k].write {
				nw++
			} else {
				nr++
			}
		}
		hi := nr
		if nw > hi {
			hi = nw
		}
		if hi > st.H {
			st.H = hi
		}
		st.Reads += nr
		st.Writes += nw
		// Validate one request per processor per step: sort by slot, then
		// reject duplicates. Inlined on the concrete request type (the
		// generic closure-based engine.CheckSchedule dominated the
		// pre-rework phase-merge profile); short schedules take the
		// allocation-free insertion sort. Slots are strictly increasing
		// after a valid sort, so the processor's step span is the last
		// request's slot.
		if n := len(reqs); n > 1 {
			if n <= insertionSortMax {
				for a := 1; a < n; a++ {
					for j := a; j > 0 && reqs[j].slot < reqs[j-1].slot; j-- {
						reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
					}
				}
			} else {
				slices.SortFunc(reqs, func(a, b request) int { return a.slot - b.slot })
			}
		}
		prevSlot := -1
		for k := range reqs {
			r := &reqs[k]
			if r.slot == prevSlot {
				panic(fmt.Sprintf("qsm: proc %d issues two requests in step %d", i, r.slot))
			}
			prevSlot = r.slot
			if m.rdCount[r.addr] == 0 && m.wrCount[r.addr] == 0 {
				m.touched = append(m.touched, r.addr)
			}
			if r.write {
				m.wrCount[r.addr]++
			} else {
				m.rdCount[r.addr]++
			}
		}
		if prevSlot+1 > maxStep {
			maxStep = prevSlot + 1
		}
	}
	if st.H < 1 {
		st.H = 1
	}
	st.Steps = maxStep

	// Contention κ and the read-write exclusion rule; reset the counters
	// for the next phase as we go (only touched addresses are non-zero).
	for _, addr := range m.touched {
		rd, wr := m.rdCount[addr], m.wrCount[addr]
		if rd > 0 && wr > 0 {
			panic(fmt.Sprintf("qsm: location %d both read and written in one phase", addr))
		}
		if rd > st.Kappa {
			st.Kappa = rd
		}
		if wr > st.Kappa {
			st.Kappa = wr
		}
		m.rdCount[addr], m.wrCount[addr] = 0, 0
	}

	// Histogram over request steps; apply writes in processor order so the
	// highest-numbered writer wins deterministically (Arbitrary rule). The
	// arena holds the runs in processor order, so it is scanned linearly.
	hist := m.core.Hist(maxStep)
	for k := range m.reqs {
		r := &m.reqs[k]
		hist[r.slot]++
		if r.write {
			m.mem[r.addr] = r.val
		}
	}
	for _, mt := range hist {
		if mt > st.MaxSlot {
			st.MaxSlot = mt
		}
		if m.cost.Kind == model.KindQSMm && mt > m.cost.M {
			st.Overload++
		}
	}
	if m.cost.Kind == model.KindQSMm {
		st.CM = m.cost.CM(hist)
	}
	st.Cost = m.cost.QSMPhase(st.W, st.H, st.Kappa, hist)
	return st, engine.StepStats{
		W: st.W, H: st.H, N: st.Reads + st.Writes,
		Steps: st.Steps, MaxSlot: st.MaxSlot, Overload: st.Overload,
		CM: st.CM, Cost: st.Cost, Hist: hist,
	}
}

// Reset clears memory and time, preserving processor RNG state.
func (m *Machine) Reset() {
	for i := range m.mem {
		m.mem[i] = 0
	}
	m.core.ResetClock()
}
