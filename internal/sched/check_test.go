package sched

import (
	"errors"
	"strings"
	"testing"

	"parbw/internal/bsp"
)

func TestCheckPlanTable(t *testing.T) {
	cases := []struct {
		name    string
		procs   int
		plan    Plan
		wantErr string // substring of the error, "" = valid
	}{
		{"empty", 0, Plan{}, ""},
		{"valid unit", 2, Plan{{{Dst: 1}}, {{Dst: 0}}}, ""},
		{"valid long", 2, Plan{{{Dst: 1, Len: 5}}, nil}, ""},
		{"nil rows", 3, Plan{nil, nil, nil}, ""},
		{"short plan", 4, Plan{nil}, "1 rows for 4 processors"},
		{"long plan", 1, Plan{nil, nil}, "2 rows for 1 processors"},
		{"dst too big", 2, Plan{{{Dst: 2}}, nil}, "invalid dst 2"},
		{"dst negative", 2, Plan{nil, {{Dst: -1}}}, "invalid dst -1"},
		{"negative len", 2, Plan{{{Dst: 0, Len: -3}}, nil}, "negative length -3"},
		{"negative procs", -1, Plan{}, "negative processor count"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := CheckPlan(c.procs, c.plan)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("CheckPlan = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("CheckPlan = %v, want error containing %q", err, c.wantErr)
			}
			var pe *PlanError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T is not *PlanError", err)
			}
		})
	}
}

// The contract between CheckPlan and the panicking compile path: a plan
// passes CheckPlan if and only if every scheduler accepts it.
func TestCheckPlanMatchesCompile(t *testing.T) {
	plans := []Plan{
		{{{Dst: 1}}, {{Dst: 0}}},
		{{{Dst: 9}}, nil},
		{nil},
		{{{Dst: 0, Len: -1}}, nil},
		{nil, nil},
	}
	for pi, plan := range plans {
		m := machine(2, 2, 1, 1)
		err := CheckPlan(2, plan)
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			NaiveSend(m, plan)
			return
		}()
		if (err != nil) != panicked {
			t.Fatalf("plan %d: CheckPlan err=%v but compile panicked=%v", pi, err, panicked)
		}
	}
}

// FuzzCheckPlan is the same contract for scheduler plans: CheckPlan never
// panics, and plans it accepts compile and run under every scheduler.
func FuzzCheckPlan(f *testing.F) {
	f.Add(2, []byte{1, 1, 0, 1})
	f.Add(4, []byte{9, 1})   // bad dst
	f.Add(3, []byte{0, 255}) // negative len byte pattern
	f.Fuzz(func(t *testing.T, procs int, data []byte) {
		if procs < 1 || procs > 32 {
			procs = 1 + (procs&0x7fffffff)%32
		}
		plan := make(Plan, procs)
		for i := 0; i+2 <= len(data) && i < 2*128; i += 2 {
			row := (i / 2) % procs
			plan[row] = append(plan[row], bsp.Msg{
				Dst: int32(int8(data[i])),
				Len: int32(int8(data[i+1])),
			})
		}
		err := CheckPlan(procs, plan) // must never panic
		if err != nil {
			return
		}
		m := machine(procs, 2, 1, 1)
		UnbalancedSend(m, plan, Options{KnownN: 1 << 10})
	})
}
