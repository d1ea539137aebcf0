package sched

import (
	"strings"
	"testing"

	"parbw/internal/bsp"
	"parbw/internal/work"
	"parbw/internal/xrand"
)

// planIR records a plan as a single-superstep IR through work.Builder,
// slots packed densely per processor in row order.
func planIR(plan Plan, m, l int) *work.IR {
	b := work.NewBuilder(len(plan), m, l)
	b.Step()
	for i, msgs := range plan {
		for _, msg := range msgs {
			b.SendMsg(i, work.Send{Dst: int(msg.Dst), Len: int(msg.Len), Tag: msg.Tag, A: msg.A, B: msg.B, C: msg.C})
		}
	}
	return b.MustIR()
}

// compileIR groups an IR superstep's sends exactly as compile lays out the
// same traffic projected to a Plan: identical row bounds, and the same
// message at every position.
func TestCompileIRMatchesCompile(t *testing.T) {
	p, mm, l := 8, 2, 1
	ir := planIR(SkewedExchangePlan(p, 2, 4, 1), mm, l)
	m1 := machine(p, mm, l, 1)
	a := compile(m1, Plan(ir.Rows(0)))
	row, order := compileIR(m1, ir, 0)
	for i := 0; i <= p; i++ {
		if a.row[i] != row[i] {
			t.Fatalf("row[%d]: %d != %d", i, a.row[i], row[i])
		}
	}
	sends := ir.Steps[0].Sends
	for k := range a.msgs {
		if s := sends[order[k]]; a.msgs[k] != s.Msg() || a.off[k] != s.Slot {
			t.Fatalf("msg %d: %+v off %d != %+v slot %d", k, a.msgs[k], a.off[k], s.Msg(), s.Slot)
		}
	}
}

// A plan recorded as an IR and projected back through Rows is the same
// plan, message payloads included.
func TestPlanIRRoundTrip(t *testing.T) {
	rng := xrand.New(5)
	p := 8
	plan := UnbalancedExchangePlan(rng, p, 6)
	plan[0] = append(plan[0], bsp.Msg{Dst: 1, Len: 2, Tag: 3, A: 41, B: -2, C: 9})
	ir := planIR(plan, 2, 1)
	back := Plan(ir.Rows(0))
	if len(back) != len(plan) {
		t.Fatalf("procs: %d != %d", len(back), len(plan))
	}
	for i := range plan {
		if len(back[i]) != len(plan[i]) {
			t.Fatalf("proc %d: %d msgs != %d", i, len(back[i]), len(plan[i]))
		}
		for j := range plan[i] {
			if back[i][j] != plan[i][j] {
				t.Fatalf("proc %d msg %d: %+v != %+v", i, j, back[i][j], plan[i][j])
			}
		}
	}
}

func TestReplayDeliversAndCharges(t *testing.T) {
	b := work.NewBuilder(4, 2, 1)
	b.Step()
	b.Work(0, 10)
	b.Work(3, 4)
	b.Send(0, 1, 2)
	b.Send(2, 3, 1)
	b.Step()
	b.SendAt(1, 7, 0, 3)
	ir := b.MustIR()

	m := machine(4, 2, 1, 1)
	flits := 0
	stats := ReplayAll(m, ir)
	if len(stats) != 2 {
		t.Fatalf("stats = %d supersteps", len(stats))
	}
	// Inboxes hold only the latest superstep's deliveries, so replay again
	// one superstep at a time to tally all of them.
	for step := range ir.Steps {
		one := ir.Clone()
		one.Steps = one.Steps[step : step+1]
		m2 := machine(4, 2, 1, 1)
		ReplayAll(m2, one)
		f, _ := deliveredFlits(m2)
		flits += f
	}
	if flits != ir.TotalFlits {
		t.Fatalf("delivered %d flits, want %d", flits, ir.TotalFlits)
	}
	// The Work vector must be charged: the same IR stripped of work must
	// cost strictly less in superstep 0.
	bare := ir.Clone()
	bare.Steps[0].Work = nil
	bareStats := ReplayAll(machine(4, 2, 1, 1), bare)
	if stats[0].Cost <= bareStats[0].Cost {
		t.Fatalf("compute work not charged: with work %v, without %v", stats[0].Cost, bareStats[0].Cost)
	}
}

func TestReplayPanicsOnInvalidIR(t *testing.T) {
	ir := &work.IR{Version: work.Version, P: 2, M: 1, L: 1,
		Steps: []work.Step{{Sends: []work.Send{{Proc: 0, Slot: 0, Dst: 9}}}}}
	defer func() {
		if recover() == nil {
			t.Fatal("ReplayAll accepted an invalid IR")
		}
	}()
	ReplayAll(machine(2, 1, 1, 1), ir)
}

// One superstep's slot schedule is accepted by the IR's validation exactly
// when ReplayAll drives it through the engine, and the rejections name the
// offending slot, endpoint or length.
func TestCheckSlotScheduleTable(t *testing.T) {
	cases := []struct {
		name    string
		sends   []work.Send
		wantErr string // substring of the error, "" = valid
	}{
		{"empty", nil, ""},
		{"valid", []work.Send{{Proc: 0, Slot: 0, Dst: 1}, {Proc: 0, Slot: 1, Dst: 2}, {Proc: 1, Slot: 0, Dst: 0}}, ""},
		{"shared slot across procs ok", []work.Send{{Proc: 0, Slot: 3, Dst: 1}, {Proc: 1, Slot: 3, Dst: 1}}, ""},
		{"long send then gap", []work.Send{{Proc: 2, Slot: 0, Dst: 0, Len: 3}, {Proc: 2, Slot: 3, Dst: 0}}, ""},
		{"negative slot", []work.Send{{Proc: 0, Slot: -1, Dst: 1}}, "negative slot -1"},
		{"dst out of range", []work.Send{{Proc: 0, Slot: 0, Dst: 4}}, "invalid dst 4"},
		{"dst negative", []work.Send{{Proc: 0, Slot: 0, Dst: -2}}, "invalid dst -2"},
		{"proc out of range", []work.Send{{Proc: 4, Slot: 0, Dst: 0}}, "invalid proc 4"},
		{"proc negative", []work.Send{{Proc: -1, Slot: 0, Dst: 0}}, "invalid proc -1"},
		{"negative len", []work.Send{{Proc: 0, Slot: 0, Dst: 1, Len: -7}}, "negative length -7"},
		{"duplicate slot-proc", []work.Send{{Proc: 1, Slot: 5, Dst: 0}, {Proc: 1, Slot: 5, Dst: 2}}, "two flits in slot 5"},
		{"long send overlap", []work.Send{{Proc: 1, Slot: 0, Dst: 0, Len: 4}, {Proc: 1, Slot: 3, Dst: 2}}, "two flits in slot 3"},
		{"unsorted input still caught", []work.Send{{Proc: 1, Slot: 3, Dst: 2}, {Proc: 1, Slot: 0, Dst: 0, Len: 4}}, "two flits in slot 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ir := &work.IR{Version: work.Version, P: 4, M: 2, L: 1,
				Steps: []work.Step{{Sends: append([]work.Send(nil), c.sends...)}}}
			err := ir.Validate()
			for i := range c.sends {
				if ir.Steps[0].Sends[i] != c.sends[i] {
					t.Fatal("Validate reordered its input")
				}
			}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				ReplayAll(machine(4, 2, 1, 1), ir)
				return
			}()
			if (err != nil) != panicked {
				t.Fatalf("Validate err=%v but ReplayAll panicked=%v", err, panicked)
			}
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

func TestCompileIRPanicsOnMachineMismatch(t *testing.T) {
	ir := &work.IR{Version: work.Version, P: 4, M: 2, L: 1, Steps: []work.Step{{}}}
	defer func() {
		if recover() == nil {
			t.Fatal("compileIR accepted a machine-shape mismatch")
		}
	}()
	compileIR(machine(8, 2, 1, 1), ir, 0)
}
