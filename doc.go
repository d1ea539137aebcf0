// Package parbw is a simulation library reproducing Adler, Gibbons, Matias
// & Ramachandran, "Modeling Parallel Bandwidth: Local vs. Global
// Restrictions" (SPAA 1997).
//
// The library lives in internal packages (this module is a self-contained
// reproduction, not an importable SDK):
//
//	internal/model      — the BSP(g), BSP(m), QSM(g), QSM(m) cost models
//	internal/bsp        — bulk-synchronous message-passing machine simulator
//	internal/qsm        — queuing shared-memory machine simulator
//	internal/pram       — EREW/QRQW/CRCW PRAM and PRAM(m) simulators
//	internal/sched      — the Section 6.1 unbalanced-send schedulers
//	internal/collective — broadcast / reduction / prefix / one-to-all
//	internal/problems   — parity, summation, list ranking, sorting, leader
//	internal/emulate    — cross-model emulations (Section 4, Theorem 5.1)
//	internal/dynamic    — Section 6.2 adversarial dynamic routing
//	internal/queue      — M/G/1 reference analytics (Claim 6.8)
//	internal/lower      — every predicted bound as a closed-form function
//	internal/harness    — the experiment registry behind cmd/bandsim
//
// BenchmarkExperiment in bench_test.go runs every registered experiment,
// one sub-benchmark per id at the quick preset, and reports each run's
// simulated time and superstep count; run it with
//
//	go test -run '^$' -bench=Experiment -benchmem .
//
// `bandsim run all` regenerates every table of the paper's evaluation; see
// EXPERIMENTS.md for the measured-versus-paper comparison.
package parbw
