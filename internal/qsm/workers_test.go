package qsm_test

import (
	"fmt"
	"reflect"
	"testing"

	"parbw/internal/emulate"
	"parbw/internal/engine"
	"parbw/internal/model"
	"parbw/internal/problems"
	"parbw/internal/qsm"
	"parbw/internal/xrand"
)

// phaseLog records every committed phase, keeping a copy of its histogram.
type phaseLog []engine.StepStats

func (l *phaseLog) OnStep(st engine.StepStats) {
	st.Hist = append([]int(nil), st.Hist...)
	*l = append(*l, st)
}

// qsmProgram is a real QSM program: mk builds its machine from a config
// that carries the worker count and observer under test, and run drives it
// and returns its output.
type qsmProgram struct {
	name string
	mk   func(cfg qsm.Config) *qsm.Machine
	run  func(m *qsm.Machine) []int64
}

// qsmPrograms are the QSM programs the harness runs, at sizes where every
// worker count under test splits the processors into several chunks:
// columnsort, list ranking, leader recognition and the CRCW PRAM(m) read
// and write simulations, plus phases in which every processor reads one of
// four hot cells and writes one of four others, picked by its own RNG, so
// queued requests meet in every phase and the highest-numbered writer must
// win. Each runs
// under both the locally- and the globally-limited cost.
func qsmPrograms() []qsmProgram {
	var progs []qsmProgram
	for _, cost := range []model.Cost{model.QSMg(4), model.QSMm(8)} {
		withCost := func(p, mem int) func(cfg qsm.Config) *qsm.Machine {
			return func(cfg qsm.Config) *qsm.Machine {
				cfg.P, cfg.Mem, cfg.Cost = p, mem, cost
				return qsm.New(cfg)
			}
		}
		keys := make([]int64, 256)
		rng := xrand.New(11)
		for i := range keys {
			keys[i] = int64(rng.Intn(1000)) - 500
		}
		list := problems.RandomList(xrand.New(12), 200)
		pm := emulate.PRAMm{Base: 64, MCells: 16}
		simMem := pm.Base + pm.MCells + 2*64 + 64 + 8
		addr := make([]int, 64)
		val := make([]int64, 64)
		for i := range addr {
			addr[i] = rng.Intn(pm.MCells)
			val[i] = int64(rng.Intn(1 << 20))
		}
		progs = append(progs,
			qsmProgram{cost.Kind.String() + "/columnsort", withCost(64, 257), func(m *qsm.Machine) []int64 {
				return problems.ColumnsortQSM(m, keys, 16)
			}},
			qsmProgram{cost.Kind.String() + "/listrank", withCost(200, 600), func(m *qsm.Machine) []int64 {
				return problems.ListRankContractQSM(m, list)
			}},
			qsmProgram{cost.Kind.String() + "/leader", withCost(100, 300), func(m *qsm.Machine) []int64 {
				return problems.LeaderQSM(m, 200, 37)
			}},
			qsmProgram{cost.Kind.String() + "/crcw-read", withCost(64, simMem), func(m *qsm.Machine) []int64 {
				for a := 0; a < pm.MCells; a++ {
					m.Store(pm.Base+a, int64(3*a+1))
				}
				return pm.SimulateCRCWRead(m, addr)
			}},
			qsmProgram{cost.Kind.String() + "/crcw-write", withCost(64, simMem), func(m *qsm.Machine) []int64 {
				pm.SimulateCRCWWrite(m, addr, val)
				return nil
			}},
			qsmProgram{cost.Kind.String() + "/contended", withCost(96, 8), func(m *qsm.Machine) []int64 {
				for range 4 {
					m.Phase(func(c *qsm.Ctx) {
						rng := c.RNG()
						c.ReadAt(rng.Intn(2), rng.Intn(4))
						c.WriteAt(2+rng.Intn(2), 4+rng.Intn(4), int64(c.ID()*10+rng.Intn(10)))
					})
				}
				return nil
			}},
		)
	}
	return progs
}

// TestQSMProgramWorkerInvariance runs every qsmPrograms program at explicit
// worker counts 1, 2 and 4, so the chunked request buffers, the contention
// counts and the write resolution all take their multi-worker paths whatever
// the machine's size: the output, the final memory, the simulated time and
// every phase's StepStats must not depend on the worker count.
func TestQSMProgramWorkerInvariance(t *testing.T) {
	type outcome struct {
		out    []int64
		mem    []int64
		time   model.Time
		phases phaseLog
	}
	runAt := func(pr qsmProgram, workers int) outcome {
		var o outcome
		m := pr.mk(qsm.Config{Seed: 5, Workers: workers, Observer: &o.phases})
		o.out = pr.run(m)
		o.time = m.Time()
		o.mem = make([]int64, m.Mem())
		for a := range o.mem {
			o.mem[a] = m.Load(a)
		}
		return o
	}
	for _, pr := range qsmPrograms() {
		t.Run(pr.name, func(t *testing.T) {
			ref := runAt(pr, 1)
			if len(ref.phases) == 0 {
				t.Fatal("program committed no phase")
			}
			for _, workers := range []int{2, 4} {
				got := runAt(pr, workers)
				for i := range ref.phases {
					if i < len(got.phases) && !reflect.DeepEqual(got.phases[i], ref.phases[i]) {
						t.Fatalf("workers=%d: phase %d %+v, want %+v", workers, i, got.phases[i], ref.phases[i])
					}
				}
				if len(got.phases) != len(ref.phases) || got.time != ref.time {
					t.Fatalf("workers=%d: %d phases, time %v; want %d, %v",
						workers, len(got.phases), got.time, len(ref.phases), ref.time)
				}
				if fmt.Sprint(got.out) != fmt.Sprint(ref.out) || fmt.Sprint(got.mem) != fmt.Sprint(ref.mem) {
					t.Fatalf("workers=%d: output or final memory differs from one worker", workers)
				}
			}
		})
	}
}
