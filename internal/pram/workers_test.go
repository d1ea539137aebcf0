package pram_test

import (
	"fmt"
	"reflect"
	"testing"

	"parbw/internal/engine"
	"parbw/internal/model"
	"parbw/internal/pram"
	"parbw/internal/problems"
	"parbw/internal/xrand"
)

// stepLog records every committed step, keeping a copy of its histogram.
type stepLog []engine.StepStats

func (l *stepLog) OnStep(st engine.StepStats) {
	st.Hist = append([]int(nil), st.Hist...)
	*l = append(*l, st)
}

// pramProgram is a real PRAM program: cfg is its machine without the worker
// count and observer under test, and run drives the machine and returns its
// output.
type pramProgram struct {
	name string
	cfg  pram.Config
	run  func(m *pram.Machine) []int64
}

// contended is a program of four steps in which every processor reads one
// and writes one of eight hot cells picked by its own RNG, so concurrent
// writers meet in every step and the mode's write resolution decides the
// winners. Under CRCW-Common the writers of a cell agree (they write the
// address), as the mode requires.
func contended(mode pram.Mode) pramProgram {
	return pramProgram{
		name: "contended/" + mode.String(),
		cfg:  pram.Config{P: 96, Mem: 8, Mode: mode},
		run: func(m *pram.Machine) []int64 {
			for range 4 {
				m.Step(func(c *pram.Ctx) {
					c.Read(c.RNG().Intn(8))
					a := c.RNG().Intn(8)
					v := int64(a)
					if mode != pram.CRCWCommon {
						v = int64(c.ID()*10 + c.RNG().Intn(10))
					}
					c.Write(a, v)
				})
			}
			return nil
		},
	}
}

// pramPrograms are the PRAM programs the harness runs — leader recognition
// on the CR and ER PRAM and both §4.1 h-relation routes — plus contended
// writes under every concurrent mode, at sizes where every worker count
// under test splits the processors into several chunks.
func pramPrograms() []pramProgram {
	const p, mm, leader = 128, 8, 45
	plan := make([][]problems.HRelationMsg, 64)
	rng := xrand.New(21)
	for i := range plan {
		start := rng.Intn(64)
		for j := range rng.Intn(5) {
			plan[i] = append(plan[i], problems.HRelationMsg{Dst: (start + j) % 64, Val: int64(i*1000 + j)})
		}
	}
	hot := make([][]problems.HRelationMsg, 16)
	for i := range hot {
		for j := range 4 {
			hot[i] = append(hot[i], problems.HRelationMsg{Dst: 0, Val: int64(i*100 + j)})
		}
	}
	flat := func(out [][]problems.HRelationMsg) []int64 {
		var vals []int64
		for _, box := range out {
			for _, msg := range box {
				vals = append(vals, int64(msg.Dst), msg.Val)
			}
			vals = append(vals, -1)
		}
		return vals
	}
	progs := []pramProgram{
		{"leader/CR", pram.Config{P: p, Mem: mm, Mode: pram.CRCWArbitrary, ROM: problems.LeaderInput(p, leader)},
			problems.LeaderCR},
		{"leader/ER", pram.Config{P: p, Mem: mm, Mode: pram.EREW, ROM: problems.LeaderInput(p, leader)},
			func(m *pram.Machine) []int64 { return problems.LeaderER(m, mm) }},
		{"hrelation/contention", pram.Config{P: 64, Mem: 128, Mode: pram.CRCWArbitrary},
			func(m *pram.Machine) []int64 {
				out, rounds := problems.HRelationCRCW(m, plan)
				return append(flat(out), int64(rounds))
			}},
		{"hrelation/radix", pram.Config{P: 64, Mem: 192, Mode: pram.CRCWArbitrary},
			func(m *pram.Machine) []int64 {
				out, rounds := problems.HRelationRadixCRCW(m, hot)
				return append(flat(out), int64(rounds))
			}},
	}
	for _, mode := range []pram.Mode{pram.QRQW, pram.CRCWCommon, pram.CRCWArbitrary, pram.CRCWPriority} {
		progs = append(progs, contended(mode))
	}
	return progs
}

// TestPRAMProgramWorkerInvariance runs every pramPrograms program at
// explicit worker counts 1, 2 and 4, so the chunked access buffers, the
// per-cell contention counts and the Arbitrary, Priority and Common write
// resolution all take their multi-worker paths whatever the machine's size:
// the output, the final memory, the simulated time, the bits moved and every
// step's StepStats must not depend on the worker count.
func TestPRAMProgramWorkerInvariance(t *testing.T) {
	type outcome struct {
		out   []int64
		mem   []int64
		time  model.Time
		bits  int
		steps stepLog
	}
	runAt := func(pr pramProgram, workers int) outcome {
		var o outcome
		cfg := pr.cfg
		cfg.Seed, cfg.Workers, cfg.Observer = 7, workers, &o.steps
		m := pram.New(cfg)
		o.out = pr.run(m)
		o.time, o.bits = m.Time(), m.BitsMoved()
		o.mem = make([]int64, m.Mem())
		for a := range o.mem {
			o.mem[a] = m.Load(a)
		}
		return o
	}
	for _, pr := range pramPrograms() {
		t.Run(pr.name, func(t *testing.T) {
			ref := runAt(pr, 1)
			if len(ref.steps) == 0 {
				t.Fatal("program committed no step")
			}
			for _, workers := range []int{2, 4} {
				got := runAt(pr, workers)
				for i := range ref.steps {
					if i < len(got.steps) && !reflect.DeepEqual(got.steps[i], ref.steps[i]) {
						t.Fatalf("workers=%d: step %d %+v, want %+v", workers, i, got.steps[i], ref.steps[i])
					}
				}
				if len(got.steps) != len(ref.steps) || got.time != ref.time || got.bits != ref.bits {
					t.Fatalf("workers=%d: %d steps, time %v, %d bits; want %d, %v, %d",
						workers, len(got.steps), got.time, got.bits, len(ref.steps), ref.time, ref.bits)
				}
				if fmt.Sprint(got.out) != fmt.Sprint(ref.out) || fmt.Sprint(got.mem) != fmt.Sprint(ref.mem) {
					t.Fatalf("workers=%d: output or final memory differs from one worker", workers)
				}
			}
		})
	}
}
