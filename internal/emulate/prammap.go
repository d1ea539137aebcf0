package emulate

import (
	"fmt"

	"parbw/internal/model"
	"parbw/internal/qsm"
)

// The Section 4 observation behind most of Table 1's upper bounds: "Given
// an EREW PRAM or QRQW PRAM algorithm that runs in time t(n) and work w(n)
// it can be converted into a QSM(m) algorithm that runs in time
// O(n/m + t(n) + w(n)/m) ... by a naive simulation of the PRAM algorithm on
// m processors. This is possible since the simulation will generate at most
// m memory accesses per step."
//
// VirtProgram is a step-synchronous virtual PRAM program: at each step,
// each virtual processor declares at most one shared read and, after seeing
// the value, at most one shared write. The program must be exclusive
// (EREW): within one step no cell may be read by two virtual processors or
// written by two (a processor may read-modify-write its own cell — the
// mapped reads and writes land in separate QSM phases). Violations surface
// as QSM-machine panics.

// VirtWrite is a declared write.
type VirtWrite struct {
	Addr int
	Val  int64
}

// VirtOp is one virtual processor's action in one step: ReadAddr = -1 for
// no read; Cont receives the read value (0 when no read) and returns the
// write to perform (ok=false for none). A nil Cont means no write.
type VirtOp struct {
	ReadAddr int
	Cont     func(val int64) (VirtWrite, bool)
}

// Nop is the idle action.
var Nop = VirtOp{ReadAddr: -1}

// VirtProgram describes the virtual machine.
type VirtProgram struct {
	VirtProcs int
	Steps     int
	// Step returns virtual processor v's action at step s.
	Step func(s, v int) VirtOp
}

// MapStats reports the mapped execution.
type MapStats struct {
	Steps    int // PRAM steps executed
	Work     int // total virtual shared accesses (the PRAM work charged)
	QSMTime  model.Time
	MaxSlot  int
	Overload int
}

// RunPRAMOnQSM executes prog on the QSM machine, using the machine's first
// min(m, p) processors as simulators: real processor r simulates virtual
// processors r, r+m, r+2m, .... Virtual shared memory is the machine's
// memory (the program addresses it directly). Each PRAM step becomes two
// phases (reads, then writes), with requests spread one per simulator per
// request-step, so a step with k accesses costs O(⌈k/m⌉ + 1) and the whole
// run costs O(t + w/m) — plus whatever input distribution the caller
// performed beforehand (the observation's n/m term).
func RunPRAMOnQSM(m *qsm.Machine, prog VirtProgram) MapStats {
	if prog.VirtProcs < 1 || prog.Steps < 0 {
		panic("emulate: malformed virtual program")
	}
	sims := min(m.Cost().Budget(m.P()), m.P())
	var st MapStats
	maxSlot := 0
	overload := 0
	nv := prog.VirtProcs
	for s := 0; s < prog.Steps; s++ {
		ss := s
		// Collect this step's ops (driver-side; the program is data).
		ops := make([]VirtOp, nv)
		for v := 0; v < nv; v++ {
			ops[v] = prog.Step(ss, v)
			if ops[v].ReadAddr >= 0 {
				st.Work++
			}
		}
		vals := make([]int64, nv)
		ph := m.Phase(func(c *qsm.Ctx) {
			r := c.ID()
			if r >= sims {
				return
			}
			slot := 0
			for v := r; v < nv; v += sims {
				if ops[v].ReadAddr >= 0 {
					c.Charge(1)
					vals[v] = c.ReadAt(slot, ops[v].ReadAddr)
					slot++
				}
			}
		})
		if ph.MaxSlot > maxSlot {
			maxSlot = ph.MaxSlot
		}
		overload += ph.Overload
		// Compute continuations (driver-side) and issue writes.
		writes := make([]VirtWrite, nv)
		doWrite := make([]bool, nv)
		for v := 0; v < nv; v++ {
			if ops[v].Cont == nil {
				continue
			}
			w, ok := ops[v].Cont(vals[v])
			if ok {
				if w.Addr < 0 || w.Addr >= m.Mem() {
					panic(fmt.Sprintf("emulate: virtual write to invalid address %d", w.Addr))
				}
				writes[v], doWrite[v] = w, true
				st.Work++
			}
		}
		ph = m.Phase(func(c *qsm.Ctx) {
			r := c.ID()
			if r >= sims {
				return
			}
			slot := 0
			for v := r; v < nv; v += sims {
				if doWrite[v] {
					c.Charge(1)
					c.WriteAt(slot, writes[v].Addr, writes[v].Val)
					slot++
				}
			}
		})
		if ph.MaxSlot > maxSlot {
			maxSlot = ph.MaxSlot
		}
		overload += ph.Overload
		st.Steps++
	}
	st.QSMTime = m.Time()
	st.MaxSlot = maxSlot
	st.Overload = overload
	return st
}

// PrefixDoublingSum returns the classic EREW prefix-doubling summation as a
// VirtProgram over cells [0, n) (double-buffered into [n, 2n)): after
// ⌈lg n⌉ rounds the total of the original cells is in the final buffer's
// last cell. Each round is two PRAM steps (one per operand read) plus one
// write step; time Θ(lg n), work Θ(n·lg n) — mapped onto the QSM(m) this
// realizes the O((n·lg n)/m + lg n) bound the paper quotes for large m.
//
// The returned program needs machine memory >= 2n; call FinalCell for the
// result location.
func PrefixDoublingSum(n int) (VirtProgram, func() int) {
	rounds := 0
	for k := 1; k < n; k *= 2 {
		rounds++
	}
	// Per round: step 0 reads own cell, step 1 reads the shifted cell and
	// writes the sum into the other buffer.
	acc := make([]int64, n)
	prog := VirtProgram{
		VirtProcs: n,
		Steps:     2 * rounds,
		Step: func(s, v int) VirtOp {
			round := s / 2
			phase := s % 2
			k := 1 << round
			cur := (round % 2) * n
			nxt := ((round + 1) % 2) * n
			if phase == 0 {
				return VirtOp{ReadAddr: cur + v, Cont: func(val int64) (VirtWrite, bool) {
					acc[v] = val
					return VirtWrite{}, false
				}}
			}
			if v >= k {
				return VirtOp{ReadAddr: cur + v - k, Cont: func(val int64) (VirtWrite, bool) {
					return VirtWrite{Addr: nxt + v, Val: acc[v] + val}, true
				}}
			}
			return VirtOp{ReadAddr: -1, Cont: func(int64) (VirtWrite, bool) {
				return VirtWrite{Addr: nxt + v, Val: acc[v]}, true
			}}
		},
	}
	return prog, func() int { return (rounds%2)*n + n - 1 }
}

// PointerJumpRank returns pointer-jumping list ranking as a VirtProgram:
// cells [0, n) hold successor indices (+1, 0 = nil) and cells [n, 2n) hold
// ranks. Each of the ⌈lg n⌉ rounds is five PRAM steps (read own succ, read
// succ's rank, read succ's succ, add to own rank, jump the pointer), time
// Θ(lg n) and work Θ(n·lg n) — the work-suboptimal algorithm whose mapped
// cost O((n·lg n)/m + lg n) motivates the paper's work-efficient
// alternatives on the QSM(m) (Table 1 row 4).
//
// Callers must initialize the machine memory: cell i = succ(i)+1 (0 for the
// tail), cell n+i = 1 if node i has a successor else 0.
func PointerJumpRank(n int) VirtProgram {
	rounds := 0
	for k := 1; k < n; k *= 2 {
		rounds++
	}
	if rounds == 0 {
		rounds = 1
	}
	// Per-round scratch, captured by the closures; the driver invokes the
	// continuations sequentially so plain slices are safe.
	succRank := make([]int64, n)
	succSucc := make([]int64, n)
	mySucc := make([]int64, n)
	return VirtProgram{
		VirtProcs: n,
		Steps:     5 * rounds,
		Step: func(s, v int) VirtOp {
			switch s % 5 {
			case 0: // read own successor pointer
				return VirtOp{ReadAddr: v, Cont: func(val int64) (VirtWrite, bool) {
					mySucc[v] = val
					return VirtWrite{}, false
				}}
			case 1: // read successor's rank
				if mySucc[v] == 0 {
					return Nop
				}
				return VirtOp{ReadAddr: n + int(mySucc[v]) - 1, Cont: func(val int64) (VirtWrite, bool) {
					succRank[v] = val
					return VirtWrite{}, false
				}}
			case 2: // read successor's successor pointer
				if mySucc[v] == 0 {
					return Nop
				}
				return VirtOp{ReadAddr: int(mySucc[v]) - 1, Cont: func(val int64) (VirtWrite, bool) {
					succSucc[v] = val
					return VirtWrite{}, false
				}}
			case 3: // rank += succ's rank
				if mySucc[v] == 0 {
					return Nop
				}
				sr := succRank[v]
				return VirtOp{ReadAddr: n + v, Cont: func(val int64) (VirtWrite, bool) {
					return VirtWrite{Addr: n + v, Val: val + sr}, true
				}}
			default: // jump: succ = succ's succ
				if mySucc[v] == 0 {
					return Nop
				}
				ss := succSucc[v]
				return VirtOp{ReadAddr: -1, Cont: func(int64) (VirtWrite, bool) {
					return VirtWrite{Addr: v, Val: ss}, true
				}}
			}
		},
	}
}
