// Package pram simulates classical PRAM variants — EREW, QRQW, and CRCW with
// the Common, Arbitrary, and Priority write-resolution rules — together with
// the limited-bandwidth PRAM(m) of Mansour, Nisan & Vishkin, in which p
// processors communicate through only m shared-memory cells and read the
// problem input from a separate, concurrently-readable Read-Only Memory at
// no bandwidth charge.
//
// Execution is lock-step: each Step runs every processor's program, in which
// a processor may issue at most one shared-memory read and one shared-memory
// write (reads observe the memory as of the start of the step; writes apply
// at the end). A step costs one time unit on EREW and CRCW machines and
// max(1, κ) on QRQW machines, where κ is the maximum per-cell queue. EREW
// machines panic on any concurrent access, which is how the engine surfaces
// algorithmic model violations.
//
// Each processor's program runs on the caller's goroutine, one processor at
// a time in ascending id order. Step runs that program loop and the
// PRAM-specific merge (contention accounting, write resolution, bit
// accounting); the commit it ends with — clock, process-wide counters,
// observer — is internal/engine's Core.
package pram

import (
	"fmt"

	"parbw/internal/engine"
	"parbw/internal/model"
	"parbw/internal/xrand"
)

// Mode selects the concurrency discipline of the shared memory.
type Mode int

const (
	// EREW permits at most one access (read or write) per cell per step.
	EREW Mode = iota
	// QRQW queues concurrent accesses: a step costs the maximum queue length.
	QRQW
	// CRCWCommon permits concurrent access; concurrent writers must agree.
	CRCWCommon
	// CRCWArbitrary permits concurrent access; one writer arbitrarily wins
	// (deterministically the highest-numbered processor in this engine).
	CRCWArbitrary
	// CRCWPriority permits concurrent access; the lowest-numbered writer wins.
	CRCWPriority
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case EREW:
		return "EREW"
	case QRQW:
		return "QRQW"
	case CRCWCommon:
		return "CRCW-Common"
	case CRCWArbitrary:
		return "CRCW-Arbitrary"
	case CRCWPriority:
		return "CRCW-Priority"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Concurrent reports whether the mode allows concurrent access to a cell.
func (m Mode) Concurrent() bool { return m != EREW }

// Config configures a Machine.
type Config struct {
	P    int  // processors
	Mem  int  // shared-memory cells; for PRAM(m) this is m
	Mode Mode // memory discipline
	// ROM, if non-nil, is the concurrently-readable read-only input memory
	// of the PRAM(m) model. ROM reads are free of time and bandwidth charge.
	ROM []int64
	// CellBits is the word width w of a shared-memory cell, used by the
	// bandwidth accounting of Section 5 (Theorem 5.2). Zero means 64.
	CellBits int
	Seed     uint64
	// Observer, if non-nil, receives a normalized engine.StepStats callback
	// after every step. It is the only way to observe the machine.
	Observer engine.Observer
}

// Stats describes one executed step.
type Stats struct {
	Reads  int        // total shared-memory reads
	Writes int        // total shared-memory writes
	Kappa  int        // maximum per-cell contention (reads or writes)
	Active int        // processors that issued at least one access
	Cost   model.Time // time charged: 1, or max(1, κ) on QRQW
	Bits   int        // shared-memory bits moved: (Reads+Writes)·CellBits
}

// Machine is a lock-step PRAM. Methods must be called from a single driver
// goroutine.
//
// Per-processor state is flat: buffered accesses live in one arena, the
// running processor's run starts where the one Ctx recorded, and the random
// sources are a lazy engine.Cols column, so machine memory is O(p) flat
// words plus O(1) objects — never O(p) objects.
type Machine struct {
	p        int
	mem      []int64
	rom      []int64
	mode     Mode
	cellBits int
	core     *engine.Core
	cols     *engine.Cols

	// accs is the access arena, recycled across steps: processors run in
	// ascending order and each appends its accesses, so the arena holds
	// every access in ascending processor order, which is what the
	// write-resolution rules iterate. ctx is the one Ctx every program runs
	// under.
	accs []access
	ctx  Ctx

	romRead int
	bits    int

	// scratch buffers recycled across steps: the per-cell contention counters
	// (with the touched-cell list that resets them) and the write-resolution
	// state for the Common/Priority rules.
	rdCount, wrCount []int
	touched          []int
	sawWrite         []bool
	lastVal          []int64 // Common rule: previous writer's value per cell
	winner           []int   // Priority rule: lowest writer id per cell
}

// New constructs a Machine. It panics on invalid configuration.
func New(cfg Config) *Machine {
	if cfg.P < 1 {
		panic("pram: P must be >= 1")
	}
	if cfg.Mem < 1 {
		panic("pram: Mem must be >= 1")
	}
	bits := cfg.CellBits
	if bits == 0 {
		bits = 64
	}
	if bits < 1 {
		panic("pram: CellBits must be >= 1")
	}
	m := &Machine{
		p:        cfg.P,
		mem:      make([]int64, cfg.Mem),
		rom:      cfg.ROM,
		mode:     cfg.Mode,
		cellBits: bits,
		core:     engine.NewCore("pram", cfg.Observer),
		cols:     engine.NewCols(cfg.P, cfg.Seed),
		rdCount:  make([]int, cfg.Mem),
		wrCount:  make([]int, cfg.Mem),
		sawWrite: make([]bool, cfg.Mem),
		lastVal:  make([]int64, cfg.Mem),
		winner:   make([]int, cfg.Mem),
	}
	m.ctx.m = m
	return m
}

// P returns the processor count.
func (m *Machine) P() int { return m.p }

// Mem returns the number of shared cells.
func (m *Machine) Mem() int { return len(m.mem) }

// Mode returns the machine's memory discipline.
func (m *Machine) Mode() Mode { return m.mode }

// CellBits returns the shared-cell width in bits.
func (m *Machine) CellBits() int { return m.cellBits }

// Time returns accumulated simulated time.
func (m *Machine) Time() model.Time { return m.core.Time() }

// Steps returns the number of steps executed.
func (m *Machine) Steps() int { return m.core.Steps() }

// BitsMoved returns the total shared-memory bits read or written so far,
// the quantity bounded below by Lemma 5.3's information argument.
func (m *Machine) BitsMoved() int { return m.bits }

// ROMReads returns the total number of ROM reads issued (uncharged).
func (m *Machine) ROMReads() int { return m.romRead }

// Load reads shared memory directly, free of charge (tests and drivers).
func (m *Machine) Load(addr int) int64 { return m.mem[addr] }

// Store writes shared memory directly, free of charge (setup only).
func (m *Machine) Store(addr int, val int64) { m.mem[addr] = val }

// access is one buffered shared-memory operation.
type access struct {
	addr  int
	val   int64
	write bool
	proc  int
}

// Ctx is the per-processor view of the current step. The machine runs every
// program under one Ctx, resetting its processor id and run start before
// each; buffered accesses go to the machine's access arena.
type Ctx struct {
	id    int
	start int // arena index of this processor's first access
	m     *Machine
}

// ID returns this processor's index.
func (c *Ctx) ID() int { return c.id }

// P returns the machine's processor count.
func (c *Ctx) P() int { return c.m.p }

// RNG returns this processor's private deterministic random source. The
// source persists across steps (it is derived lazily on first use,
// byte-for-byte identical to an eager per-processor split of the seed).
func (c *Ctx) RNG() *xrand.Source { return c.m.cols.RNG(c.id) }

// run returns this processor's accesses buffered so far this step — its run
// is the tail of the arena, at most two entries.
func (c *Ctx) run() []access {
	return c.m.accs[c.start:]
}

// Read returns the value addr held at the start of the step. At most one
// shared-memory read per processor per step.
func (c *Ctx) Read(addr int) int64 {
	for _, a := range c.run() {
		if !a.write {
			panic(fmt.Sprintf("pram: proc %d issues two reads in one step", c.id))
		}
	}
	if addr < 0 || addr >= len(c.m.mem) {
		panic(fmt.Sprintf("pram: proc %d reads invalid cell %d (mem=%d)", c.id, addr, len(c.m.mem)))
	}
	c.m.accs = append(c.m.accs, access{addr: addr, proc: c.id})
	return c.m.mem[addr]
}

// Write schedules a write of val to addr, applied at the end of the step.
// At most one shared-memory write per processor per step.
func (c *Ctx) Write(addr int, val int64) {
	for _, a := range c.run() {
		if a.write {
			panic(fmt.Sprintf("pram: proc %d issues two writes in one step", c.id))
		}
	}
	if addr < 0 || addr >= len(c.m.mem) {
		panic(fmt.Sprintf("pram: proc %d writes invalid cell %d (mem=%d)", c.id, addr, len(c.m.mem)))
	}
	c.m.accs = append(c.m.accs, access{addr: addr, val: val, write: true, proc: c.id})
}

// ReadROM returns ROM[addr]. ROM reads are concurrent and free: the PRAM(m)
// model charges nothing for input distribution. It panics if the machine has
// no ROM.
func (c *Ctx) ReadROM(addr int) int64 {
	if c.m.rom == nil {
		panic("pram: machine has no ROM")
	}
	c.m.romRead++
	return c.m.rom[addr]
}

// Step executes fn for every processor and then commits the step: reads are
// validated against the mode, writes are resolved and applied, and the clock
// advances. It returns the step's Stats. The programs run for processors 0,
// 1, ..., P-1 in that order on the caller's goroutine; a panicking program
// panics Step with its own value, the processors after it do not run, and
// nothing is committed.
func (m *Machine) Step(fn func(c *Ctx)) Stats {
	m.accs = m.accs[:0]
	c := &m.ctx
	active := 0
	for i := range m.p {
		c.id, c.start = i, len(m.accs)
		fn(c)
		if len(m.accs) > c.start {
			active++
		}
	}
	st, view := m.merge(active)
	m.core.Commit(view)
	m.bits += st.Bits
	return st
}

// merge is the PRAM merge strategy: walk the accesses in processor order
// (the arena's order), compute per-cell contention, enforce the mode's
// rules, resolve writes, and price the step. Write resolution depends only
// on processor order, so the memory image is a function of the programs.
// active is the number of processors the program loop saw issue an access.
func (m *Machine) merge(active int) (Stats, engine.StepStats) {
	st := Stats{Active: active}
	for k := range m.accs {
		if m.accs[k].write {
			st.Writes++
		} else {
			st.Reads++
		}
	}

	// Contention per cell, separately for reads and writes (a cell that is
	// both read and written in one step is CR+CW territory: permitted on
	// CRCW — the read sees the old value — but an EREW violation). The
	// counters are recycled: only touched cells are non-zero, and they are
	// reset below once the step is resolved.
	m.touched = m.touched[:0]
	for _, a := range m.accs {
		if m.rdCount[a.addr] == 0 && m.wrCount[a.addr] == 0 {
			m.touched = append(m.touched, a.addr)
		}
		if a.write {
			m.wrCount[a.addr]++
		} else {
			m.rdCount[a.addr]++
		}
	}
	for _, addr := range m.touched {
		rd, wr := m.rdCount[addr], m.wrCount[addr]
		if rd > 0 && wr > 0 && m.mode == EREW {
			panic(fmt.Sprintf("pram: EREW cell %d read and written in one step", addr))
		}
		if rd > st.Kappa {
			st.Kappa = rd
		}
		if wr > st.Kappa {
			st.Kappa = wr
		}
	}
	if m.mode == EREW && st.Kappa > 1 {
		panic(fmt.Sprintf("pram: EREW contention %d", st.Kappa))
	}

	// Resolve writes.
	switch m.mode {
	case CRCWCommon:
		for _, a := range m.accs {
			if !a.write {
				continue
			}
			if m.sawWrite[a.addr] && m.lastVal[a.addr] != a.val {
				panic(fmt.Sprintf("pram: Common-CRCW writers disagree at cell %d (%d vs %d)", a.addr, m.lastVal[a.addr], a.val))
			}
			m.sawWrite[a.addr] = true
			m.lastVal[a.addr] = a.val
			m.mem[a.addr] = a.val
		}
	case CRCWPriority:
		for _, a := range m.accs {
			if !a.write {
				continue
			}
			if !m.sawWrite[a.addr] || a.proc < m.winner[a.addr] {
				m.sawWrite[a.addr] = true
				m.winner[a.addr] = a.proc
				m.mem[a.addr] = a.val
			}
		}
	default: // EREW, QRQW, CRCWArbitrary: processor-order application;
		// the highest-numbered writer wins (Arbitrary rule).
		for _, a := range m.accs {
			if a.write {
				m.mem[a.addr] = a.val
			}
		}
	}

	// Reset the recycled per-cell scratch for the next step.
	for _, addr := range m.touched {
		m.rdCount[addr], m.wrCount[addr] = 0, 0
		m.sawWrite[addr] = false
	}

	st.Cost = 1
	if m.mode == QRQW && st.Kappa > 1 {
		st.Cost = model.Time(st.Kappa)
	}
	st.Bits = (st.Reads + st.Writes) * m.cellBits
	return st, engine.StepStats{
		H: st.Kappa, N: st.Reads + st.Writes,
		Steps: 1, MaxSlot: st.Kappa, Cost: st.Cost,
	}
}
