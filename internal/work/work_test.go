package work

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"parbw/internal/bsp"
)

func validIR() *IR {
	return &IR{
		Version: Version, Family: "test", Seed: 7, P: 4, M: 2, L: 1,
		Steps: []Step{
			{Work: []int64{3, 0, 1, 0}, Sends: []Send{
				{Proc: 0, Slot: 0, Dst: 1, Len: 2},
				{Proc: 0, Slot: 2, Dst: 2},
				{Proc: 1, Slot: 0, Dst: 3, Len: 1},
			}},
			{Sends: []Send{
				{Proc: 3, Slot: 5, Dst: 0, Len: 4},
			}},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	ir := validIR()
	ir.SealTotals()
	if err := ir.Validate(); err != nil {
		t.Fatalf("valid IR rejected: %v", err)
	}
	if ir.TotalSends != 4 {
		t.Fatalf("TotalSends = %d, want 4", ir.TotalSends)
	}
	if ir.TotalFlits != 2+1+1+4 {
		t.Fatalf("TotalFlits = %d, want 8", ir.TotalFlits)
	}
	for name, sends := range map[string][]Send{
		"empty step":         nil,
		"long send then gap": {{Proc: 2, Slot: 0, Dst: 0, Len: 3}, {Proc: 2, Slot: 3, Dst: 0}},
	} {
		ir := &IR{Version: Version, P: 4, M: 2, L: 1, Steps: []Step{{Sends: sends}}}
		if err := ir.Validate(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}

func TestValidateDoesNotCrossCheckTotals(t *testing.T) {
	ir := validIR()
	ir.TotalSends = 999
	ir.TotalFlits = -5
	if err := ir.Validate(); err != nil {
		t.Fatalf("lying totals must stay representable, got %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*IR)
		want string
	}{
		{"bad version", func(ir *IR) { ir.Version = 99 }, "version"},
		{"p zero", func(ir *IR) { ir.P = 0 }, "p=0"},
		{"p over cap", func(ir *IR) { ir.P = MaxP + 1 }, "out of range"},
		{"m zero", func(ir *IR) { ir.M = 0 }, "m=0"},
		{"m over p", func(ir *IR) { ir.M = 5 }, "m=5"},
		{"l zero", func(ir *IR) { ir.L = 0 }, "l=0"},
		{"work too long", func(ir *IR) { ir.Steps[0].Work = make([]int64, 9) }, "work vector"},
		{"negative work", func(ir *IR) { ir.Steps[0].Work[0] = -1 }, "negative work"},
		{"bad proc", func(ir *IR) { ir.Steps[0].Sends[0].Proc = 4 }, "invalid proc"},
		{"negative proc", func(ir *IR) { ir.Steps[0].Sends[0].Proc = -1 }, "invalid proc"},
		{"bad dst", func(ir *IR) { ir.Steps[0].Sends[0].Dst = -2 }, "invalid dst"},
		{"dst out of range", func(ir *IR) { ir.Steps[0].Sends[0].Dst = 4 }, "invalid dst 4"},
		{"negative slot", func(ir *IR) { ir.Steps[1].Sends[0].Slot = -1 }, "negative slot"},
		{"slot over cap", func(ir *IR) { ir.Steps[1].Sends[0].Slot = MaxSlot + 1 }, "exceeds cap"},
		{"negative len", func(ir *IR) { ir.Steps[0].Sends[2].Len = -3 }, "negative length"},
		{"len over cap", func(ir *IR) { ir.Steps[0].Sends[2].Len = MaxMsgLen + 1 }, "exceeds cap"},
		{"overlap exact", func(ir *IR) {
			ir.Steps[0].Sends = append(ir.Steps[0].Sends, Send{Proc: 1, Slot: 0, Dst: 2})
		}, "two flits in slot"},
		{"overlap span", func(ir *IR) {
			// Proc 0's Len=2 send covers slots [0,2); slot 1 collides.
			ir.Steps[0].Sends = append(ir.Steps[0].Sends, Send{Proc: 0, Slot: 1, Dst: 3})
		}, "two flits in slot"},
		{"unsorted overlap", func(ir *IR) {
			// The later-listed send starts first and spans the earlier one.
			ir.Steps[1].Sends = append(ir.Steps[1].Sends, Send{Proc: 3, Slot: 2, Dst: 1, Len: 4})
		}, "two flits in slot 5"},
	}
	for _, tc := range cases {
		ir := validIR()
		tc.mut(ir)
		before := ir.Clone()
		err := ir.Validate()
		for si := range ir.Steps {
			for i := range ir.Steps[si].Sends {
				if ir.Steps[si].Sends[i] != before.Steps[si].Sends[i] {
					t.Fatalf("%s: Validate reordered its input", tc.name)
				}
			}
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateAllowsCrossProcSameSlot(t *testing.T) {
	// Distinct processors sharing a slot is contention, not a structural
	// error — the models price it.
	ir := &IR{Version: Version, P: 4, M: 2, L: 1, Steps: []Step{{Sends: []Send{
		{Proc: 0, Slot: 0, Dst: 1},
		{Proc: 1, Slot: 0, Dst: 2},
		{Proc: 2, Slot: 0, Dst: 3},
	}}}}
	if err := ir.Validate(); err != nil {
		t.Fatalf("cross-proc same-slot rejected: %v", err)
	}
}

func TestValidatePrec(t *testing.T) {
	base := func() *IR {
		ir := validIR()
		ir.Prec = &Prec{
			Proc:  []int{0, 1, 0},
			Step:  []int{0, 1, 2},
			Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}},
		}
		return ir
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid prec rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Prec)
		want string
	}{
		{"len mismatch", func(pr *Prec) { pr.Step = pr.Step[:2] }, "node procs but"},
		{"bad proc", func(pr *Prec) { pr.Proc[1] = 7 }, "invalid proc"},
		{"negative step", func(pr *Prec) { pr.Step[0] = -1 }, "invalid step"},
		{"step past end", func(pr *Prec) { pr.Step[2] = 3 }, "invalid step"},
		{"edge out of range", func(pr *Prec) { pr.Edges[0] = [2]int{0, 9} }, "outside"},
		{"edge backward", func(pr *Prec) { pr.Edges[0] = [2]int{1, 0} }, "not forward"},
		{"edge self", func(pr *Prec) { pr.Edges[0] = [2]int{1, 1} }, "not forward"},
	}
	for _, tc := range cases {
		ir := base()
		tc.mut(ir.Prec)
		err := ir.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ir := validIR()
	ir.Prec = &Prec{Proc: []int{0, 1}, Step: []int{0, 1}, Edges: [][2]int{{0, 1}}}
	ir.SealTotals()
	b1, err := ir.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(b1, []byte("\n")) {
		t.Fatal("encoding must be newline-terminated")
	}
	got, err := Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("re-encode drifted:\n%s\n%s", b1, b2)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	if _, err := Decode([]byte(`{"version":99,"p":1,"m":1,"l":1,"steps":[],"total_sends":0,"total_flits":0}`)); err == nil {
		t.Fatal("decoded unknown version")
	}
	if _, err := Decode([]byte(`{not json`)); err == nil {
		t.Fatal("decoded malformed JSON")
	}
}

func TestEncodeStableGolden(t *testing.T) {
	// The canonical encoding is part of the corpus contract: field order is
	// struct declaration order, zero-valued optional fields are omitted, and
	// family and seed are always present.
	ir := &IR{Version: Version, Family: "g", Seed: 3, P: 2, M: 1, L: 1,
		Steps: []Step{{Sends: []Send{{Proc: 0, Slot: 0, Dst: 1, Len: 2}}}}}
	ir.SealTotals()
	b, err := ir.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"version":1,"family":"g","seed":3,"p":2,"m":1,"l":1,"steps":[{"sends":[{"proc":0,"slot":0,"dst":1,"len":2}]}],"total_sends":1,"total_flits":2}` + "\n"
	if string(b) != want {
		t.Fatalf("canonical encoding drifted:\ngot  %s\nwant %s", b, want)
	}
	ir.Seed = 0
	b, err = ir.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"family":"g","seed":0,`)) {
		t.Fatalf("zero seed omitted: %s", b)
	}
}

func TestHist(t *testing.T) {
	ir := validIR()
	hist := ir.Hist(0)
	// Slot 0: proc0 flit + proc1 flit; slot 1: proc0's second flit;
	// slot 2: proc0's zero-len (1 flit) send.
	want := []int{2, 1, 1}
	if len(hist) != len(want) {
		t.Fatalf("hist = %v, want %v", hist, want)
	}
	for i := range want {
		if hist[i] != want[i] {
			t.Fatalf("hist = %v, want %v", hist, want)
		}
	}
	if got := ir.Hist(1); len(got) != 9 || got[5] != 1 || got[8] != 1 {
		t.Fatalf("step-1 hist = %v", got)
	}
}

func TestClone(t *testing.T) {
	ir := validIR()
	ir.Prec = &Prec{Proc: []int{0}, Step: []int{0}}
	cp := ir.Clone()
	cp.Steps[0].Sends[0].Dst = 3
	cp.Steps[0].Work[0] = 99
	cp.Prec.Proc[0] = 2
	if ir.Steps[0].Sends[0].Dst == 3 || ir.Steps[0].Work[0] == 99 || ir.Prec.Proc[0] == 2 {
		t.Fatal("Clone aliases the original")
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(4, 2, 1)
	b.Step()
	b.Work(0, 5)
	b.Send(0, 1, 2) // slots [0,2)
	b.Send(0, 2, 1) // slot 2
	b.Send(1, 3, 0) // slot 0 (own cursor)
	b.Step()
	b.SendAt(3, 5, 0, 4)
	ir := b.IR()
	if err := ir.Validate(); err != nil {
		t.Fatalf("builder IR invalid: %v", err)
	}
	if len(ir.Steps) != 2 {
		t.Fatalf("steps = %d", len(ir.Steps))
	}
	s := ir.Steps[0].Sends
	if s[1].Slot != 2 || s[2].Slot != 0 {
		t.Fatalf("auto-packed slots wrong: %+v", s)
	}
	if ir.Steps[0].Work[0] != 5 {
		t.Fatalf("work = %v", ir.Steps[0].Work)
	}
	if ir.TotalSends != 4 || ir.TotalFlits != 2+1+1+4 {
		t.Fatalf("totals = %d/%d", ir.TotalSends, ir.TotalFlits)
	}
	// SendAt past the cursor moves the cursor beyond the explicit span.
	b2 := NewBuilder(2, 1, 1)
	b2.Step()
	b2.SendAt(0, 4, 1, 2) // slots [4,6)
	b2.Send(0, 1, 1)      // must land at 6, not 0
	ir2 := b2.IR()
	if ir2.Steps[0].Sends[1].Slot != 6 {
		t.Fatalf("cursor after SendAt = %d, want 6", ir2.Steps[0].Sends[1].Slot)
	}
	if err := ir2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Per-processor message rows recorded through Builder.SendMsg and projected
// back through Rows are the same rows, payloads included, with each
// processor's sends packed densely from slot 0.
func TestRowsFromRowsRoundTrip(t *testing.T) {
	rows := [][]bsp.Msg{
		{{Dst: 1, Len: 2, Tag: 3, A: 41, B: -2, C: 9}, {Dst: 2, A: 5}},
		nil,
		{{Dst: 0, Len: 1}},
	}
	b := NewBuilder(len(rows), 2, 4)
	b.Step()
	for p, msgs := range rows {
		for _, msg := range msgs {
			b.SendMsg(p, Send{Dst: int(msg.Dst), Len: int(msg.Len), Tag: msg.Tag, A: msg.A, B: msg.B, C: msg.C})
		}
	}
	ir := b.IR()
	if ir.P != 3 || ir.M != 2 || ir.L != 4 {
		t.Fatalf("shape = p%d m%d l%d", ir.P, ir.M, ir.L)
	}
	if err := ir.Validate(); err != nil {
		t.Fatalf("rows produced invalid IR: %v", err)
	}
	// Dense packing: proc 0's second send starts after the first's 2 flits.
	if ir.Steps[0].Sends[1].Slot != 2 {
		t.Fatalf("second send slot = %d, want 2", ir.Steps[0].Sends[1].Slot)
	}
	back := ir.Rows(0)
	if len(back) != len(rows) {
		t.Fatalf("rows len = %d", len(back))
	}
	for p := range rows {
		if len(back[p]) != len(rows[p]) {
			t.Fatalf("proc %d: %d msgs, want %d", p, len(back[p]), len(rows[p]))
		}
		for i := range rows[p] {
			if back[p][i] != rows[p][i] {
				t.Fatalf("proc %d msg %d: %+v != %+v", p, i, back[p][i], rows[p][i])
			}
		}
	}
}

func TestBuilderSendBeforeStepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Send before Step did not panic")
		}
	}()
	NewBuilder(2, 1, 1).Send(0, 1, 1)
}

func TestErrorType(t *testing.T) {
	ir := validIR()
	ir.Steps[1].Sends[0].Dst = 9
	err := ir.Validate()
	we, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if we.Step != 1 || we.Index != 0 {
		t.Fatalf("Step/Index = %d/%d", we.Step, we.Index)
	}
	if !strings.HasPrefix(we.Error(), "work: ") {
		t.Fatalf("error %q lacks package prefix", we.Error())
	}
	// Of two sends in the same (proc, slot), the later one is reported.
	ir = validIR()
	ir.Steps[0].Sends = append(ir.Steps[0].Sends, Send{Proc: 0, Slot: 2, Dst: 3})
	if we, ok := ir.Validate().(*Error); !ok || we.Step != 0 || we.Index != 3 {
		t.Fatalf("duplicate slot reported as %+v, want step 0 index 3", ir.Validate())
	}
}

// Validation is O(n log n) in the sends of a step: a step at the send cap,
// listed in descending processor order (the worst case for an insertion
// sort), validates well within a second.
func TestValidateLargeStepFast(t *testing.T) {
	ir := &IR{Version: Version, P: MaxP, M: 1, L: 1, Steps: []Step{{}}}
	per := MaxSendsTotal / MaxP
	for proc := MaxP - 1; proc >= 0; proc-- {
		for slot := 0; slot < per; slot++ {
			ir.Steps[0].Sends = append(ir.Steps[0].Sends, Send{Proc: proc, Slot: slot, Dst: 0})
		}
	}
	start := time.Now()
	if err := ir.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("validating %d sends took %v, want < 1s", MaxSendsTotal, d)
	}
}
