package work

import "fmt"

// Builder assembles an IR imperatively — the replacement for the ad-hoc
// [][]bsp.Msg plan literals harness experiment bodies used to build. It
// keeps a per-processor slot cursor within the current superstep so callers
// can append sends without slot arithmetic: Send packs densely after the
// processor's previous send, SendAt pins an explicit slot and advances the
// cursor past it. Finalize with IR(), which seals the declared totals.
type Builder struct {
	ir   IR
	next []int // per-proc next free slot in the current superstep
}

// NewBuilder starts an IR for a p-processor machine with bandwidth
// parameter m and latency l.
func NewBuilder(p, m, l int) *Builder {
	return &Builder{
		ir:   IR{Version: Version, P: p, M: m, L: l},
		next: make([]int, p),
	}
}

// Family records the provenance label.
func (b *Builder) Family(f string) *Builder { b.ir.Family = f; return b }

// Seed records the generating seed.
func (b *Builder) Seed(s uint64) *Builder { b.ir.Seed = s; return b }

// Step opens a new superstep; subsequent Work/Send calls target it.
func (b *Builder) Step() *Builder {
	b.ir.Steps = append(b.ir.Steps, Step{})
	for i := range b.next {
		b.next[i] = 0
	}
	return b
}

func (b *Builder) cur() *Step {
	if len(b.ir.Steps) == 0 {
		panic("work: Builder used before Step()")
	}
	return &b.ir.Steps[len(b.ir.Steps)-1]
}

// Work charges units of compute work to proc in the current superstep
// (accumulating across calls).
func (b *Builder) Work(proc int, units int64) *Builder {
	st := b.cur()
	if st.Work == nil {
		st.Work = make([]int64, b.ir.P)
	}
	st.Work[proc] += units
	return b
}

// Send appends a send from proc to dst of len flits at the processor's next
// free slot (dense packing in call order).
func (b *Builder) Send(proc, dst, len int) *Builder {
	return b.SendAt(proc, b.next[proc], dst, len)
}

// SendMsg is Send with an explicit payload, for algorithm-carrying plans.
func (b *Builder) SendMsg(proc int, s Send) *Builder {
	s.Proc = proc
	s.Slot = b.next[proc]
	b.cur().Sends = append(b.cur().Sends, s)
	b.next[proc] = s.Slot + s.Flits()
	return b
}

// SendAt appends a send at an explicit slot and advances the processor's
// cursor past it if the explicit span ends later.
func (b *Builder) SendAt(proc, slot, dst, len int) *Builder {
	s := Send{Proc: proc, Slot: slot, Dst: dst, Len: len}
	b.cur().Sends = append(b.cur().Sends, s)
	if end := slot + s.Flits(); end > b.next[proc] {
		b.next[proc] = end
	}
	return b
}

// IR finalizes the build: declared totals are sealed from the step data and
// the finished IR returned. The builder must not be reused afterwards.
func (b *Builder) IR() *IR {
	b.ir.SealTotals()
	return &b.ir
}

// MustIR is IR plus a Validate gate, panicking on structural errors — for
// experiment bodies, where a malformed workload is a programming bug.
func (b *Builder) MustIR() *IR {
	ir := b.IR()
	if err := ir.Validate(); err != nil {
		panic(fmt.Sprintf("work: builder produced invalid IR: %v", err))
	}
	return ir
}
