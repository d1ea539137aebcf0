package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported number: its name and unit as BENCHMARK.json lists
// them.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload from its untraced operations. An operation is what a user waits
// for: a `run all` pass, a sweep job, one request, one fuzz batch.
var endToEnd = []metric{
	{"latency_ms", "ms"},        // median operation time, GOMAXPROCS=N
	{"throughput_per_s", "1/s"}, // median over operations of items (experiments, cells, requests, seeds) per second, GOMAXPROCS=N
	{"alloc_kb_per_item", "KB"}, // heap allocated per item, GOMAXPROCS=N
	{"setup_s", "s"},            // median of the set-ups: construction and warm-up
}

// expGroups are the experiments of a full `run all` pass that take the most
// time, each reported on its own; every other experiment counts as "rest".
var expGroups = []string{
	"ablation/sort", "dyn/bspm", "sim/crcw-pramm", "validate/channels", "sep/leader",
	"table1/listrank", "ablation/listrank", "table1/summary",
}

// expGroup names the group of an experiment in metric names.
func expGroup(id string) string {
	if slices.Contains(expGroups, id) {
		return strings.ReplaceAll(id, "/", "-")
	}
	return "rest"
}

// groupNames are the expGroup names, "rest" last.
func groupNames() []string {
	var out []string
	for _, g := range expGroups {
		out = append(out, expGroup(g))
	}
	return append(out, "rest")
}

// perLayer are the metrics of single layers, reported by traced runs. A
// workload that does not reach a layer reports 0 for it.
var perLayer = func() []metric {
	var ms []metric
	for _, prefix := range []string{"harness.exp_s.", "harness.exp_1core_s."} {
		for _, g := range groupNames() {
			ms = append(ms, metric{prefix + g, "s"})
		}
	}
	ms = append(ms,
		metric{"harness.resolve_us", "us"},
		metric{"harness.task_ms_p50", "ms"},
		metric{"harness.task_ms_p99", "ms"},
		metric{"harness.busy_share", "ratio"},
		metric{"engine.supersteps", "count"},
		metric{"engine.messages", "count"},
		metric{"engine.us_per_superstep", "us"},
		metric{"engine.us_per_superstep_1core", "us"},
		metric{"workpool.latency_1core_ms", "ms"},
		metric{"workpool.core_speedup", "ratio"},
		metric{"result.encode_ms", "ms"},
		metric{"result.bytes", "bytes"},
		metric{"service.queue_wait_ms", "ms"},
		metric{"service.exec_ms", "ms"},
		metric{"service.http_ms", "ms"},
		metric{"service.tasks_run", "count"},
		metric{"service.tasks_cached", "count"},
		metric{"service.task_retries", "count"},
		metric{"service.task_panics", "count"},
		metric{"service.tasks_degraded", "count"},
		metric{"service.sse_frames", "count"},
		metric{"service.sse_step_frames", "count"},
		metric{"service.sse_gap_frames", "count"},
		metric{"service.stream_events_published", "count"},
		metric{"service.stream_events_dropped", "count"},
		metric{"service.stream_events_coalesced", "count"},
		metric{"service.sse_final_lag_ms", "ms"},
		metric{"service.subscriber_cost", "ratio"},
		metric{"runstore.put_ms", "ms"},
		metric{"runstore.puts", "count"},
		metric{"runstore.bytes_written", "bytes"},
		metric{"runstore.read_us_p50", "us"},
		metric{"runstore.reads", "count"},
		metric{"runstore.bytes_read", "bytes"},
		metric{"runstore.mem_hit_ratio", "ratio"},
		metric{"runstore.disk_hits", "count"},
		metric{"runstore.evictions", "count"},
		metric{"workgen.gen_us", "us"},
		metric{"oracle.check_us", "us"},
		metric{"fuzz.sends", "count"},
		metric{"fuzz.flits", "count"},
		metric{"oracle.violations", "count"},
		metric{"trace_overhead", "ratio"},
	)
	for _, n := range spanNames {
		ms = append(ms, metric{"self_ms." + n, "ms"})
	}
	return ms
}()

// kind is how one operation runs: on how many cores, and whether traced.
type kind struct {
	procs  int
	traced bool
}

// sample is what one operation measured.
type sample struct {
	kind
	dur    time.Duration
	lat    []float64 // user-visible latencies in ms: the operation itself, or each request of it
	items  int       // experiments, cells, requests or seeds completed
	ops    int       // operations attempted (requests, for serve-warm)
	failed int       // operations that failed or returned wrong output
	alloc  uint64    // heap bytes allocated while timed
	st     stats     // per-layer values of this operation
}

// stats holds per-layer values by metric name.
type stats map[string]float64

// alternate runs op in rotation over kinds, switching GOMAXPROCS before
// each, until d has passed at the end of a whole rotation. It restores
// GOMAXPROCS when done.
func alternate(d time.Duration, kinds []kind, op func(k kind)) {
	n := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(n)
	start := time.Now()
	for i := 0; ; i++ {
		k := kinds[i%len(kinds)]
		runtime.GOMAXPROCS(k.procs)
		op(k)
		if i%len(kinds) == len(kinds)-1 && time.Since(start) >= d {
			return
		}
	}
}

// kindsFor returns the rotation of a run. Untraced runs time only N cores:
// every operation then counts towards the end-to-end medians, and none
// pays for switching GOMAXPROCS. Traced runs add 1 core and the traced
// operations for the per-layer metrics.
func kindsFor(n int, trace bool) []kind {
	if !trace {
		return []kind{{n, false}}
	}
	return []kind{{n, false}, {n, true}, {1, false}, {1, true}}
}

// heapRead returns one runtime/metrics value in bytes.
func heapRead(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocated returns the bytes allocated on the heap since the process
// started. Unlike any reading of heap size, the bytes an operation allocates
// do not depend on when the collector happened to run.
func allocated() uint64 { return heapRead("/gc/heap/allocs:bytes") }

// median and percentile use linear interpolation between closest ranks.
func median(xs []float64) float64 { return percentile(xs, 50) }

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// interleaved names the experiments whose output depends on goroutine
// interleaving by design: async/backpressure's completion time is fixed only
// up to the order its network serialization point admits messages (see
// internal/async). Digests cover their keys but not their bytes.
var interleaved = map[string]bool{"async/backpressure": true}

// digest hashes (key, canonical result bytes) pairs in key order: the
// wall-clock-free fingerprint of a workload's output.
func digest(out map[string][]byte) string {
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		data := out[k]
		var head struct {
			Experiment string `json:"experiment"`
		}
		if json.Unmarshal(data, &head) == nil && interleaved[head.Experiment] {
			data = []byte(head.Experiment)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", k, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// spanStats derives per-layer values from the spans of one traced operation.
// workers is how many runner calls the operation can have in flight.
func spanStats(spans []span, workers int, st stats) {
	for name, ns := range selfTimes(spans) {
		st["self_ms."+name] += ms(ns)
	}
	var root span
	var tasks, reads []float64
	var runNS, resolveNS, writeNS, genNS, checkNS int64
	var resolves, gens, checks int
	for _, s := range spans {
		switch s.Name {
		case spanRunAll, spanFuzzBatch, spanHTTP, spanSSE:
			if s.Parent == 0 {
				root = s
			}
		case spanRun:
			st["harness.exp_s."+expGroup(s.Label)] += float64(s.dur()) / 1e9
			tasks = append(tasks, ms(s.dur()))
			runNS += s.dur()
		case spanResolve:
			resolveNS += s.dur()
			resolves++
		case spanEncode:
			st["result.encode_ms"] += ms(s.dur())
			st["result.bytes"] += float64(s.Bytes)
		case spanRead:
			reads = append(reads, float64(s.dur())/1e3)
			st["runstore.bytes_read"] += float64(s.Bytes)
		case spanWrite:
			writeNS += s.dur()
			st["runstore.bytes_written"] += float64(s.Bytes)
			if s.Label == "rename" {
				st["runstore.puts"]++
			}
		case spanGenerate:
			genNS += s.dur()
			gens++
		case spanCheck:
			checkNS += s.dur()
			checks++
		}
	}
	if len(tasks) > 0 {
		st["harness.task_ms_p50"] = median(tasks)
		st["harness.task_ms_p99"] = percentile(tasks, 99)
		if d := root.dur(); d > 0 {
			st["harness.busy_share"] = float64(runNS) / float64(int64(workers)*d)
		}
	}
	if resolves > 0 {
		st["harness.resolve_us"] = float64(resolveNS) / 1e3 / float64(resolves)
	}
	st["runstore.reads"] = float64(len(reads))
	st["runstore.read_us_p50"] = median(reads)
	if puts := st["runstore.puts"]; puts > 0 {
		st["runstore.put_ms"] = ms(writeNS) / puts
	}
	if gens > 0 {
		st["workgen.gen_us"] = float64(genNS) / 1e3 / float64(gens)
	}
	if checks > 0 {
		st["oracle.check_us"] = float64(checkNS) / 1e3 / float64(checks)
	}
}

// pick returns the samples of one kind.
func pick(samples []sample, k kind) []sample {
	var out []sample
	for _, s := range samples {
		if s.kind == k {
			out = append(out, s)
		}
	}
	return out
}

// latencies returns every latency of the samples.
func latencies(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		out = append(out, s.lat...)
	}
	return out
}

// summarize turns a run's samples into its metrics: end-to-end ones from the
// untraced operations, per-layer ones (medians over operations) from the
// traced ones. Values a workload sets itself in extra win.
func summarize(samples []sample, n int, setupS float64, trace bool, extra stats) map[string]float64 {
	nU, oneU := pick(samples, kind{n, false}), pick(samples, kind{1, false})
	out := map[string]float64{}
	if !trace {
		var rate, alloc []float64
		for _, s := range nU {
			if s.items > 0 {
				rate = append(rate, float64(s.items)/s.dur.Seconds())
				alloc = append(alloc, float64(s.alloc)/float64(s.items)/1024)
			}
		}
		out["latency_ms"] = median(latencies(nU))
		out["throughput_per_s"] = median(rate)
		out["alloc_kb_per_item"] = median(alloc)
		out["setup_s"] = setupS
		return out
	}
	nT, oneT := pick(samples, kind{n, true}), pick(samples, kind{1, true})
	layer := func(ss []sample, name string) float64 {
		vals := make([]float64, len(ss))
		for i, s := range ss {
			vals[i] = s.st[name]
		}
		return median(vals)
	}
	for _, m := range perLayer {
		out[m.name] = layer(nT, m.name)
	}
	for _, g := range groupNames() {
		out["harness.exp_1core_s."+g] = layer(oneT, "harness.exp_s."+g)
	}
	usPerStep := func(ss []sample) float64 {
		vals := make([]float64, 0, len(ss))
		for _, s := range ss {
			if steps := s.st["engine.supersteps"]; steps > 0 {
				vals = append(vals, float64(s.dur.Microseconds())/steps)
			}
		}
		return median(vals)
	}
	out["engine.supersteps"] = layer(nU, "engine.supersteps")
	out["engine.messages"] = layer(nU, "engine.messages")
	out["engine.us_per_superstep"] = usPerStep(nU)
	out["engine.us_per_superstep_1core"] = usPerStep(oneU)
	out["workpool.latency_1core_ms"] = median(latencies(oneU))
	if l := median(latencies(nU)); l > 0 {
		out["workpool.core_speedup"] = median(latencies(oneU)) / l
		out["trace_overhead"] = median(latencies(nT)) / l
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}
