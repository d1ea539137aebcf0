package bsp_test

import (
	"runtime"
	"testing"

	"parbw/internal/bsp"
	"parbw/internal/model"
	"parbw/internal/work"
	"parbw/internal/workgen"
)

// replay runs every superstep of w on one machine with the given worker
// count and returns the per-step Stats plus the final per-processor inboxes.
func replay(t *testing.T, w *work.IR, workers int) ([]bsp.Stats, [][]bsp.Msg) {
	t.Helper()
	m := bsp.New(bsp.Config{P: w.P, Cost: model.BSPm(w.M, w.L), Seed: w.Seed, Workers: workers})
	stats := make([]bsp.Stats, 0, len(w.Steps))
	for step := range w.Steps {
		sends := w.Steps[step].Sends
		stats = append(stats, m.Superstep(func(c *bsp.Ctx) {
			for _, s := range sends {
				if s.Proc != c.ID() {
					continue
				}
				c.SendAt(s.Slot, s.Dst, bsp.Msg{Len: int32(s.Len)})
			}
		}))
	}
	boxes := make([][]bsp.Msg, w.P)
	for i := 0; i < w.P; i++ {
		boxes[i] = append([]bsp.Msg(nil), m.Inbox(i)...)
	}
	return stats, boxes
}

// TestWorkerCountEquivalence is the engine-level determinism contract of the
// columnar rework: the same seeded workload produces byte-identical Stats,
// costs, clock, and delivered traffic at every worker count — chunked state,
// shard arenas, and the parallel router are pure representation. Runs under
// -race in CI, which also exercises the fan-out for data races.
func TestWorkerCountEquivalence(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, family := range workgen.Families() {
		for seed := uint64(1); seed <= 4; seed++ {
			w := workgen.GenerateIR(workgen.GenConfig{Family: family, Seed: seed})
			if err := w.Validate(); err != nil {
				t.Fatalf("%s/%d: invalid workload: %v", family, seed, err)
			}
			refStats, refBoxes := replay(t, w, workerCounts[0])
			for _, workers := range workerCounts[1:] {
				stats, boxes := replay(t, w, workers)
				for s := range refStats {
					if stats[s] != refStats[s] {
						t.Fatalf("%s/%d workers=%d: superstep %d stats %+v, want %+v",
							family, seed, workers, s, stats[s], refStats[s])
					}
				}
				for i := range refBoxes {
					if len(boxes[i]) != len(refBoxes[i]) {
						t.Fatalf("%s/%d workers=%d: proc %d inbox length %d, want %d",
							family, seed, workers, i, len(boxes[i]), len(refBoxes[i]))
					}
					for k := range refBoxes[i] {
						if boxes[i][k] != refBoxes[i][k] {
							t.Fatalf("%s/%d workers=%d: proc %d msg %d = %+v, want %+v",
								family, seed, workers, i, k, boxes[i][k], refBoxes[i][k])
						}
					}
				}
			}
		}
	}
}
