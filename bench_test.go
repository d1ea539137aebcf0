// One benchmark per registered experiment, so the benchmarks wire each Table 1
// row and each theorem-level experiment exactly as `bandsim run` does. Each
// sub-benchmark runs its experiment at the quick preset, seed 1, and reports
// beside the simulator's wall-clock ns/op the run's model numbers, read from
// the run's own observer: simtime (the charged cost summed over every
// superstep of every machine the experiment drove) and supersteps (their
// count).
//
// Run: go test -run '^$' -bench=Experiment -benchmem .
package parbw_test

import (
	"testing"

	"parbw/internal/engine"
	"parbw/internal/harness"
)

func BenchmarkExperiment(b *testing.B) {
	for _, e := range harness.All() {
		b.Run(e.ID, func(b *testing.B) {
			var simtime float64
			var supersteps int
			cfg := harness.Config{Seed: 1, Params: harness.QuickParams(),
				Observer: engine.ObserverFunc(func(st engine.StepStats) {
					simtime += st.Cost
					supersteps++
				})}
			for i := 0; i < b.N; i++ {
				simtime, supersteps = 0, 0
				e.Run(nil, cfg)
			}
			b.ReportMetric(simtime, "simtime")
			b.ReportMetric(float64(supersteps), "supersteps")
		})
	}
}
