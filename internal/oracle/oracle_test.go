package oracle

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"parbw/internal/work"
	"parbw/internal/work/dagsched"
	"parbw/internal/workgen"
)

func TestGeneratedWorkloadsSatisfyInvariants(t *testing.T) {
	for _, fam := range workgen.Families() {
		for seed := uint64(0); seed < 100; seed++ {
			w := workgen.GenerateIR(workgen.GenConfig{Family: fam, Seed: seed})
			if vs := CheckIR(w); len(vs) != 0 {
				t.Fatalf("%s seed %d: unexpected violations: %+v", fam, seed, vs)
			}
		}
	}
}

func TestCheckDeterministic(t *testing.T) {
	w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyHRel, Seed: 17})
	a := CheckIR(w)
	b := CheckIR(w)
	if len(a) != len(b) {
		t.Fatalf("violation counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("violation %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestInvalidWorkloadReportsValidateOnly(t *testing.T) {
	w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyHRel, Seed: 3, P: 4})
	w.Steps[0].Sends[0].Dst = 99
	vs := CheckIR(w)
	if len(vs) != 1 || vs[0].Invariant != "workload/validate" {
		t.Fatalf("violations = %+v, want exactly workload/validate", vs)
	}
	if !strings.Contains(vs[0].Detail, "invalid dst") {
		t.Fatalf("detail %q does not name the bad destination", vs[0].Detail)
	}
}

func TestLyingTotalsCaught(t *testing.T) {
	w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyBalls, Seed: 8})
	w.TotalFlits += 5
	vs := CheckIR(w)
	found := false
	for _, v := range vs {
		if v.Invariant == "workload/conserve" {
			found = true
		}
		if v.Invariant == "sched/conserve" {
			found = true
		}
	}
	if !found {
		t.Fatalf("lying totals not caught: %+v", vs)
	}
}

func TestAdversarialWorkloadsNeverPanic(t *testing.T) {
	for _, fam := range workgen.Families() {
		for seed := uint64(0); seed < 100; seed++ {
			w := workgen.GenerateIR(workgen.GenConfig{Family: fam, Seed: seed, Adversarial: true})
			vs := CheckIR(w) // must not panic
			if len(vs) == 0 {
				t.Fatalf("%s seed %d: adversarial workload produced no violation", fam, seed)
			}
			for _, v := range vs {
				if strings.HasPrefix(v.Detail, "panic:") {
					t.Fatalf("%s seed %d: invariant %s panicked: %s", fam, seed, v.Invariant, v.Detail)
				}
			}
		}
	}
}

func TestBreakForTestHook(t *testing.T) {
	BreakForTest = "workload/conserve"
	defer func() { BreakForTest = "" }()
	w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyHRel, Seed: 1})
	if w.TotalFlits == 0 {
		t.Skip("seed produced an empty workload")
	}
	vs := CheckIR(w)
	names := Names(vs)
	if len(names) != 1 || names[0] != "workload/conserve" {
		t.Fatalf("broken oracle reported %v, want exactly workload/conserve", names)
	}
}

// dagWorkload generates a dag-family workload that actually carries a
// precedence layer and at least one cross-processor send.
func dagWorkload(t *testing.T) *work.IR {
	t.Helper()
	for seed := uint64(0); seed < 50; seed++ {
		w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyDAG, Seed: seed, P: 4, Steps: 3})
		if w.Prec != nil && w.TotalSends > 0 {
			return w
		}
	}
	t.Fatal("no dag seed under 50 produced cross-processor traffic")
	return nil
}

func TestPrecedenceInvariantPassesOnLoweredDAGs(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyDAG, Seed: seed})
		if w.Prec == nil {
			t.Fatalf("seed %d: dag workload carries no precedence layer", seed)
		}
		if vs := CheckIR(w); len(vs) != 0 {
			t.Fatalf("seed %d: violations on lowered DAG: %+v", seed, vs)
		}
	}
}

func TestPrecedenceInvariantCatchesDroppedSend(t *testing.T) {
	w := dagWorkload(t)
	// Drop every send of the first superstep that carries one: some
	// dependency edge loses its message.
	for si := range w.Steps {
		if len(w.Steps[si].Sends) > 0 {
			w.Steps[si].Sends = nil
			break
		}
	}
	w.TotalSends, w.TotalFlits = w.CountSends() // keep conserve quiet
	names := Names(CheckIR(w))
	found := false
	for _, n := range names {
		if n == "workload/precedence" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dropped dependency message not caught: %v", names)
	}
}

func TestPrecedenceInvariantCatchesMisphasedSend(t *testing.T) {
	// A two-node chain across processors where the message is sent in the
	// superstep AFTER the consumer computes — wrong phase, must be flagged.
	ir := &work.IR{Version: work.Version, Family: "dag", P: 2, M: 1, L: 1,
		Steps: []work.Step{
			{}, // the edge's window [0, 1) — empty
			{Sends: []work.Send{{Proc: 0, Slot: 0, Dst: 1}}}, // too late
		},
		Prec: &work.Prec{Proc: []int{0, 1}, Step: []int{0, 1}, Edges: [][2]int{{0, 1}}},
	}
	ir.SealTotals()
	names := Names(CheckIR(ir))
	if len(names) != 1 || names[0] != "workload/precedence" {
		t.Fatalf("mis-phased dependency message reported %v, want exactly workload/precedence", names)
	}
}

func TestCheckIRAcceptsDagschedLowerings(t *testing.T) {
	// Both placement policies, batched and not, must satisfy every
	// invariant — Lower's conformance contract.
	d := &dagsched.DAG{
		Nodes: make([]dagsched.Node, 12),
		Edges: []dagsched.Edge{
			{U: 0, V: 4, Len: 2}, {U: 1, V: 4}, {U: 1, V: 5}, {U: 2, V: 6, Len: 3},
			{U: 3, V: 7}, {U: 4, V: 8, Len: 2}, {U: 5, V: 9}, {U: 6, V: 10},
			{U: 7, V: 11}, {U: 4, V: 9}, {U: 5, V: 8},
		},
	}
	for i := range d.Nodes {
		d.Nodes[i].Work = int64(1 + i%3)
	}
	levels, err := d.Levels()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		place dagsched.Placement
		batch bool
	}{
		{"greedy", dagsched.LevelSchedule(d, levels, 4), false},
		{"greedy-batched", dagsched.LevelSchedule(d, levels, 4), true},
		{"comm-aware", dagsched.CommAwareSchedule(d, levels, 4, 2), false},
		{"comm-aware-batched", dagsched.CommAwareSchedule(d, levels, 4, 2), true},
	} {
		ir, err := dagsched.Lower(d, levels, tc.place, 4, 2, 1, dagsched.Options{Batch: tc.batch})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if vs := CheckIR(ir); len(vs) != 0 {
			t.Fatalf("%s: violations: %+v", tc.name, vs)
		}
	}
}

func TestInvariantsListMatchesCheck(t *testing.T) {
	// Every name CheckIR can emit is in Invariants(); spot-check via the
	// validate and conserve paths.
	listed := map[string]bool{}
	for _, n := range Invariants() {
		listed[n] = true
	}
	w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyHRel, Seed: 3, P: 4})
	w.Steps[0].Sends[0].Dst = 99
	for _, v := range CheckIR(w) {
		if !listed[v.Invariant] {
			t.Fatalf("CheckIR emitted unlisted invariant %q", v.Invariant)
		}
	}
}

func TestCorpusEntryRoundTrip(t *testing.T) {
	w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyDAG, Seed: 5})
	e := &Entry{Note: "clean dag workload", Violations: []string{}, Workload: w}
	enc, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeEntry(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(enc2) {
		t.Fatalf("round trip changed bytes:\n%s\n%s", enc, enc2)
	}
	if err := Replay(back); err != nil {
		t.Fatalf("clean entry failed replay: %v", err)
	}
}

func TestReplayDetectsDrift(t *testing.T) {
	w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyHRel, Seed: 2})
	e := &Entry{Violations: []string{"workload/conserve"}, Workload: w}
	if err := Replay(e); err == nil {
		t.Fatal("stale entry (recorded violation no longer reproduced) passed replay")
	}
	w.TotalFlits++
	clean := &Entry{Violations: []string{}, Workload: w}
	if err := Replay(clean); err == nil {
		t.Fatal("regressed entry (new violation) passed replay")
	}
}

func TestDecodeEntryRejects(t *testing.T) {
	if _, err := DecodeEntry([]byte("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeEntry([]byte(`{"violations":[]}`)); err == nil {
		t.Fatal("entry without workload accepted")
	}
}

// TestGroundTruthSlotBuckets replays a hand-built superstep whose
// multi-flit sends come from several processors, share slots, and are
// stored out of processor and slot order. Each slot's bucket must list its
// flits in processor order, and the PRAM replay must write exactly hist[t]
// flits at every step t.
func TestGroundTruthSlotBuckets(t *testing.T) {
	ir := &work.IR{Version: work.Version, Family: "hand", P: 4, M: 2, L: 1,
		Steps: []work.Step{{Sends: []work.Send{
			{Proc: 3, Slot: 1, Dst: 0, Len: 3}, // slots 1–3
			{Proc: 0, Slot: 2, Dst: 1, Len: 2}, // slots 2–3
			{Proc: 2, Slot: 0, Dst: 3},
			{Proc: 1, Slot: 1, Dst: 2, Len: 2}, // slots 1–2
			{Proc: 0, Slot: 0, Dst: 3},
			{Proc: 2, Slot: 3, Dst: 1, Len: 2}, // slots 3–4
			{Proc: 1, Slot: 4, Dst: 0},
		}}},
	}
	ir.SealTotals()
	if vs := CheckIR(ir); len(vs) != 0 {
		t.Fatalf("violations: %+v", vs)
	}

	steps := []stepView{{ir: ir}}
	tr := steps[0].truth()
	wantHist := []int{2, 2, 3, 3, 2}
	if !slices.Equal(tr.hist, wantHist) {
		t.Fatalf("hist = %v, want %v", tr.hist, wantHist)
	}
	if tr.n != 12 || tr.steps != 5 || tr.maxSlot != 3 {
		t.Fatalf("(n, steps, maxSlot) = (%d, %d, %d), want (12, 5, 3)", tr.n, tr.steps, tr.maxSlot)
	}
	g := steps[0].groups()
	for i, want := range [][]int{{1, 4}, {3, 6}, {2, 5}, {0}} {
		if got := g.of(i); !slices.Equal(got, want) {
			t.Errorf("proc %d sends = %v, want %v", i, got, want)
		}
	}
	sends := ir.Steps[0].Sends
	off, bySlot := slotBuckets(sends, g, tr.hist)
	for slot, want := range [][][2]int{ // (proc, dst) per flit, processor order
		{{0, 3}, {2, 3}},
		{{1, 2}, {3, 0}},
		{{0, 1}, {1, 2}, {3, 0}},
		{{0, 1}, {2, 1}, {3, 0}},
		{{1, 0}, {2, 1}},
	} {
		var got [][2]int
		for _, k := range bySlot[off[slot]:off[slot+1]] {
			got = append(got, [2]int{sends[k].Proc, sends[k].Dst})
		}
		if !slices.Equal(got, want) {
			t.Errorf("slot %d bucket = %v, want %v", slot, got, want)
		}
	}

	var fails []string
	checkGroundTruth(ir, steps, func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	})
	if len(fails) != 0 {
		t.Fatalf("ground truth on the buckets: %v", fails)
	}

	// Groups out of processor order leave a slot bucket out of processor
	// order too, which stalls the cursor on a processor that has already
	// run: the replay writes fewer flits than the histogram and must say so.
	g.order[0], g.order[6] = g.order[6], g.order[0] // procs 0 and 3 swap places
	checkGroundTruth(ir, steps, func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	})
	wantFails := []string{
		"superstep 0: pram step 1 writes = 1, want hist 2",
		"superstep 0: pram step 2 writes = 1, want hist 3",
		"superstep 0: pram step 3 writes = 1, want hist 3",
		"superstep 0: pram total writes = 7, want 12",
	}
	if !slices.Equal(fails, wantFails) {
		t.Fatalf("shuffled groups reported %q, want %q", fails, wantFails)
	}
}

// TestLazySharesPanic: a shared derivation runs once, and a panic while
// computing it reaches every reader with the same value.
func TestLazySharesPanic(t *testing.T) {
	var l lazy[int]
	calls := 0
	read := func() (r any) {
		defer func() { r = recover() }()
		l.get(func() int { calls++; panic("boom") })
		return nil
	}
	if a, b := read(), read(); a != "boom" || b != "boom" || calls != 1 {
		t.Fatalf("reads panicked with %v and %v after %d computations, want boom twice after 1", a, b, calls)
	}
}
