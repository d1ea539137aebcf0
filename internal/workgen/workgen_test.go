package workgen

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"parbw/internal/sched"
	"parbw/internal/work"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, fam := range Families() {
		for seed := uint64(0); seed < 50; seed++ {
			a, err := GenerateIR(GenConfig{Family: fam, Seed: seed}).Encode()
			if err != nil {
				t.Fatal(err)
			}
			b, err := GenerateIR(GenConfig{Family: fam, Seed: seed}).Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s seed %d: two generations differ:\n%s\n%s", fam, seed, a, b)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := GenerateIR(GenConfig{Family: FamilyHRel, Seed: 1}).Encode()
	b, _ := GenerateIR(GenConfig{Family: FamilyHRel, Seed: 2}).Encode()
	if bytes.Equal(a, b) {
		t.Fatal("distinct seeds produced identical workloads")
	}
}

// Golden bytes pin the cross-platform encoding of one small workload. If
// this test breaks, every checked-in corpus entry is invalidated — bump
// work.Version instead of re-capturing.
func TestGenerateByteStability(t *testing.T) {
	ir := GenerateIR(GenConfig{Family: FamilyBalls, Seed: 7, P: 4, M: 2, L: 1, Steps: 1, Load: 1})
	got, err := ir.Encode()
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"version":1,"family":"balls","seed":7,"p":4,"m":2,"l":1,"steps":[{"sends":[{"proc":1,"slot":0,"dst":2,"len":1},{"proc":2,"slot":1,"dst":2,"len":1},{"proc":2,"slot":2,"dst":2,"len":1},{"proc":3,"slot":2,"dst":2,"len":1}]}],"total_sends":4,"total_flits":4}` + "\n"
	if string(got) != want {
		t.Fatalf("encoding drifted:\n got %s\nwant %s", got, want)
	}
}

// Generated workloads validate, declare honest totals, carry no compute
// work, and encode every send list (even an empty one) as an array.
func TestGeneratedWorkloadsValidate(t *testing.T) {
	for _, fam := range Families() {
		for seed := uint64(0); seed < 200; seed++ {
			ir := GenerateIR(GenConfig{Family: fam, Seed: seed})
			if err := ir.Validate(); err != nil {
				t.Fatalf("%s seed %d: generated workload invalid: %v", fam, seed, err)
			}
			sends, flits := ir.CountSends()
			if sends != ir.TotalSends || flits != ir.TotalFlits {
				t.Fatalf("%s seed %d: declared totals (%d, %d) != actual (%d, %d)",
					fam, seed, ir.TotalSends, ir.TotalFlits, sends, flits)
			}
			for si, st := range ir.Steps {
				if st.Work != nil || st.Sends == nil {
					t.Fatalf("%s seed %d step %d: work %v, sends nil=%v", fam, seed, si, st.Work, st.Sends == nil)
				}
			}
		}
	}
}

func TestPinnedConfigRespected(t *testing.T) {
	ir := GenerateIR(GenConfig{Family: FamilyHRel, Seed: 3, P: 8, M: 4, L: 2, Steps: 3})
	if ir.P != 8 || ir.M != 4 || ir.L != 2 || len(ir.Steps) != 3 {
		t.Fatalf("pins ignored: p=%d m=%d l=%d steps=%d", ir.P, ir.M, ir.L, len(ir.Steps))
	}
}

func TestAdversarialRejected(t *testing.T) {
	// Every adversarial workload must be caught by Validate or by the
	// declared-totals cross-check — cleanly, without panicking.
	caught := 0
	for _, fam := range Families() {
		for seed := uint64(0); seed < 100; seed++ {
			ir := GenerateIR(GenConfig{Family: fam, Seed: seed, Adversarial: true})
			err := ir.Validate()
			sends, flits := ir.CountSends()
			lying := sends != ir.TotalSends || flits != ir.TotalFlits
			if err == nil && !lying {
				t.Fatalf("%s seed %d: adversarial workload passed all checks", fam, seed)
			}
			if err != nil {
				caught++
			}
		}
	}
	if caught == 0 {
		t.Fatal("no adversarial workload failed Validate — corruptor too weak")
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	ir := GenerateIR(GenConfig{Family: FamilyDAG, Seed: 11})
	enc, err := ir.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := work.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("round trip changed bytes:\n%s\n%s", enc, enc2)
	}
}

// Generated workloads decode through work.Decode, which rejects malformed
// bytes and an encoding from an unknown IR version.
func TestDecodeRejects(t *testing.T) {
	enc, err := GenerateIR(GenConfig{Family: FamilyHRel, Seed: 3}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := work.Decode(enc[:len(enc)/2]); err == nil {
		t.Fatal("truncated workload accepted")
	}
	future := bytes.Replace(enc, []byte(fmt.Sprintf(`"version":%d`, work.Version)), []byte(`"version":99`), 1)
	if bytes.Equal(future, enc) {
		t.Fatal("fixture encoding has no version field")
	}
	if _, err := work.Decode(future); err == nil ||
		!strings.Contains(err.Error(), "version 99") {
		t.Fatalf("unknown version accepted: %v", err)
	}
}

func TestValidateRejectsTable(t *testing.T) {
	base := func() *work.IR {
		return GenerateIR(GenConfig{Family: FamilyHRel, Seed: 5, P: 4, M: 2, Steps: 1})
	}
	cases := []struct {
		name    string
		mutate  func(*work.IR)
		wantErr string
	}{
		{"p zero", func(ir *work.IR) { ir.P = 0 }, "p=0 out of range"},
		{"p over cap", func(ir *work.IR) { ir.P = work.MaxP + 1 }, "out of range"},
		{"m over p", func(ir *work.IR) { ir.M = ir.P + 1 }, "m=5 out of range"},
		{"negative l", func(ir *work.IR) { ir.L = -1 }, "l=-1 out of range"},
		{"too many steps", func(ir *work.IR) { ir.Steps = make([]work.Step, work.MaxSteps+1) }, "exceeds cap"},
		{"slot over cap", func(ir *work.IR) { ir.Steps[0].Sends[0].Slot = work.MaxSlot + 1 }, "exceeds cap"},
		{"len over cap", func(ir *work.IR) { ir.Steps[0].Sends[0].Len = work.MaxMsgLen + 1 }, "exceeds cap"},
		{"negative slot", func(ir *work.IR) { ir.Steps[0].Sends[0].Slot = -2 }, "negative slot"},
		{"bad dst", func(ir *work.IR) { ir.Steps[0].Sends[0].Dst = 9 }, "invalid dst"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ir := base()
			if len(ir.Steps[0].Sends) == 0 {
				t.Fatal("fixture workload has no sends")
			}
			c.mutate(ir)
			err := ir.Validate()
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

// Each superstep's Rows (the schedulers' Plan shape) and Hist (the
// injection histogram the oracles price) account for the same flits.
func TestPlanAndHist(t *testing.T) {
	ir := GenerateIR(GenConfig{Family: FamilyHRel, Seed: 9, P: 6, M: 3, Steps: 2})
	for step := range ir.Steps {
		plan := sched.Plan(ir.Rows(step))
		if err := sched.CheckPlan(ir.P, plan); err != nil {
			t.Fatalf("step %d: Plan invalid: %v", step, err)
		}
		_, n, _ := plan.Flits(ir.P)
		histTotal := 0
		for _, c := range ir.Hist(step) {
			histTotal += c
		}
		if histTotal != n {
			t.Fatalf("step %d: hist total %d != plan flits %d", step, histTotal, n)
		}
	}
}

func TestParseFamily(t *testing.T) {
	for _, fam := range Families() {
		if got, err := ParseFamily(string(fam)); err != nil || got != fam {
			t.Fatalf("ParseFamily(%q) = %v, %v", fam, got, err)
		}
	}
	if _, err := ParseFamily("zebra"); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestDAGRespectsLayers(t *testing.T) {
	// Every DAG family workload must send only along layer-consecutive
	// edges; indirectly verified by determinism plus the fact that each
	// superstep validates. Here: at least one seed produces actual traffic.
	traffic := 0
	for seed := uint64(0); seed < 20; seed++ {
		traffic += GenerateIR(GenConfig{Family: FamilyDAG, Seed: seed}).TotalSends
	}
	if traffic == 0 {
		t.Fatal("20 DAG seeds produced zero sends")
	}
}

func TestRoundTripPreservesLyingTotals(t *testing.T) {
	ir := GenerateIR(GenConfig{Family: FamilyBalls, Seed: 4})
	ir.TotalFlits += 7
	ir.TotalSends -= 2
	enc, err := ir.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := work.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalFlits != ir.TotalFlits || back.TotalSends != ir.TotalSends {
		t.Fatalf("declared totals not carried verbatim: %d/%d != %d/%d",
			back.TotalSends, back.TotalFlits, ir.TotalSends, ir.TotalFlits)
	}
}

func TestDAGFamilyCarriesPrecedence(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		ir := GenerateIR(GenConfig{Family: FamilyDAG, Seed: seed})
		if ir.Prec == nil {
			t.Fatalf("seed %d: dag workload has no precedence layer", seed)
		}
		if ir.Prec.Nodes() == 0 || len(ir.Prec.Edges) == 0 {
			t.Fatalf("seed %d: degenerate precedence layer: %d nodes, %d edges",
				seed, ir.Prec.Nodes(), len(ir.Prec.Edges))
		}
		if err := ir.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The layer survives the corpus encoding.
		b, err := ir.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := work.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Prec == nil || got.Prec.Nodes() != ir.Prec.Nodes() {
			t.Fatalf("seed %d: precedence layer lost in encode/decode", seed)
		}
	}
}

func TestValidateRejectsBadPrec(t *testing.T) {
	ir := GenerateIR(GenConfig{Family: FamilyDAG, Seed: 1})
	ir.Prec.Step[0] = len(ir.Steps) + 5
	if err := ir.Validate(); err == nil {
		t.Fatal("out-of-range prec step accepted")
	}
}

func TestHRelAndBallsCarryNoPrec(t *testing.T) {
	for _, fam := range []Family{FamilyHRel, FamilyBalls} {
		ir := GenerateIR(GenConfig{Family: fam, Seed: 3})
		if ir.Prec != nil {
			t.Fatalf("%s: unexpected precedence layer", fam)
		}
		b, err := ir.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(b) == "" || strings.Contains(string(b), `"prec"`) {
			t.Fatalf("%s: prec field leaked into encoding", fam)
		}
	}
}
