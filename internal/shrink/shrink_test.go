package shrink

import (
	"testing"

	"parbw/internal/oracle"
	"parbw/internal/work"
	"parbw/internal/workgen"
)

// sameNames reports whether the oracle violation names of w equal want.
func sameNames(w *work.IR, want []string) bool {
	got := oracle.Names(oracle.CheckIR(w))
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// The acceptance-criteria scenario: a deliberately broken invariant
// (test-only hook) must shrink to a workload with at most 3 supersteps —
// in fact to one superstep with one unit send, since the broken conserve
// check fails for any workload carrying a flit.
func TestShrinkBrokenInvariantToMinimal(t *testing.T) {
	oracle.BreakForTest = "workload/conserve"
	defer func() { oracle.BreakForTest = "" }()

	for _, seed := range []uint64{1, 7, 23} {
		w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyHRel, Seed: seed})
		if w.TotalFlits == 0 {
			continue
		}
		want := oracle.Names(oracle.CheckIR(w))
		if len(want) == 0 {
			t.Fatalf("seed %d: hook did not break the oracle", seed)
		}
		res := Minimize(w, func(c *work.IR) bool { return sameNames(c, want) }, Options{})
		got := res.Workload
		if len(got.Steps) > 3 {
			t.Fatalf("seed %d: shrunk to %d supersteps, want <= 3", seed, len(got.Steps))
		}
		sends, flits := got.CountSends()
		if len(got.Steps) != 1 || sends != 1 || flits != 1 {
			t.Errorf("seed %d: expected the 1-step/1-send/1-flit minimum, got steps=%d sends=%d flits=%d",
				seed, len(got.Steps), sends, flits)
		}
		if got.P != 1 || got.M != 1 || got.L != 1 {
			t.Errorf("seed %d: machine shape not minimized: p=%d m=%d l=%d", seed, got.P, got.M, got.L)
		}
		if !sameNames(got, want) {
			t.Fatalf("seed %d: shrunk workload no longer fails the same way", seed)
		}
		if res.Nondeterministic != 0 {
			t.Errorf("seed %d: %d nondeterministic candidates on a pure predicate",
				seed, res.Nondeterministic)
		}
	}
}

// A lying-totals workload must stay a lying-totals workload through
// shrinking (the declared-vs-actual delta is preserved), and shrink to the
// empty workload — zero sends still violates conserve when the declared
// totals are off.
func TestShrinkPreservesTotalsDelta(t *testing.T) {
	w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyBalls, Seed: 4})
	w.TotalFlits += 7
	want := oracle.Names(oracle.CheckIR(w))
	res := Minimize(w, func(c *work.IR) bool { return sameNames(c, want) }, Options{})
	got := res.Workload
	if !sameNames(got, want) {
		t.Fatal("shrunk workload no longer fails the same way")
	}
	if sends, _ := got.CountSends(); sends != 0 {
		t.Errorf("lying-totals counterexample kept %d sends, want 0", sends)
	}
}

func TestNonFailingInputReturnedUnchanged(t *testing.T) {
	w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyHRel, Seed: 5})
	enc, _ := w.Encode()
	res := Minimize(w, func(c *work.IR) bool { return len(oracle.CheckIR(c)) > 0 }, Options{})
	enc2, _ := res.Workload.Encode()
	if string(enc) != string(enc2) {
		t.Fatal("non-failing input was modified")
	}
}

func TestInputNotMutated(t *testing.T) {
	oracle.BreakForTest = "workload/conserve"
	defer func() { oracle.BreakForTest = "" }()
	w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyHRel, Seed: 1})
	enc, _ := w.Encode()
	want := oracle.Names(oracle.CheckIR(w))
	Minimize(w, func(c *work.IR) bool { return sameNames(c, want) }, Options{})
	enc2, _ := w.Encode()
	if string(enc) != string(enc2) {
		t.Fatal("Minimize mutated its input workload")
	}
}

func TestNondeterministicPredicateRejected(t *testing.T) {
	w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyHRel, Seed: 9})
	flip := false
	res := Minimize(w, func(c *work.IR) bool {
		flip = !flip
		return flip
	}, Options{})
	// Every candidate disagrees with itself, so nothing may shrink.
	if res.Nondeterministic == 0 {
		t.Fatal("flaky predicate not detected")
	}
	enc, _ := w.Encode()
	enc2, _ := res.Workload.Encode()
	if string(enc) != string(enc2) {
		t.Fatal("flaky predicate still shrank the workload")
	}
}

func TestEvalBudgetRespected(t *testing.T) {
	oracle.BreakForTest = "workload/conserve"
	defer func() { oracle.BreakForTest = "" }()
	w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyHRel, Seed: 1})
	res := Minimize(w, func(c *work.IR) bool {
		return sameNames(c, []string{"workload/conserve"})
	}, Options{MaxEvals: 10})
	if res.Evals > 10 {
		t.Fatalf("spent %d evals, budget 10", res.Evals)
	}
}

func TestDDMinMinimalSubset(t *testing.T) {
	// ddmin on a plain int list: failure iff the list contains both 3 and
	// 7. The minimum is exactly {3, 7}.
	items := []int{1, 2, 3, 4, 5, 6, 7, 8}
	got := ddmin(items, func(cand []int) bool {
		has3, has7 := false, false
		for _, v := range cand {
			has3 = has3 || v == 3
			has7 = has7 || v == 7
		}
		return has3 && has7
	})
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("ddmin = %v, want [3 7]", got)
	}
}

func TestDDMinEmptyAndSingle(t *testing.T) {
	if got := ddmin(nil, func(c []int) bool { return true }); len(got) != 0 {
		t.Fatalf("ddmin(nil) = %v", got)
	}
	if got := ddmin([]int{5}, func(c []int) bool { return len(c) == 0 || c[0] == 5 }); len(got) != 0 {
		t.Fatalf("singleton not dropped when empty list fails too: %v", got)
	}
	if got := ddmin([]int{5}, func(c []int) bool { return len(c) == 1 }); len(got) != 1 {
		t.Fatalf("necessary singleton dropped: %v", got)
	}
}

func TestShrinkKeepsSlotSchedulesConsistent(t *testing.T) {
	// Shrinking a clean-oracle failure must produce a workload whose slot
	// schedules still validate (the predicate pins the violation set, so a
	// candidate that breaks validation fails differently and is rejected).
	oracle.BreakForTest = "workload/conserve"
	defer func() { oracle.BreakForTest = "" }()
	w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyDAG, Seed: 2})
	if w.TotalFlits == 0 {
		t.Skip("empty workload")
	}
	want := oracle.Names(oracle.CheckIR(w))
	res := Minimize(w, func(c *work.IR) bool { return sameNames(c, want) }, Options{})
	if err := res.Workload.Validate(); err != nil {
		t.Fatalf("shrunk workload invalid: %v", err)
	}
}
