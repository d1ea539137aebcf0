package bsp

import (
	"testing"

	"parbw/internal/model"
)

// Deliver must never clobber a neighboring routed bucket: the inbox views
// are capacity-clamped subslices of one shared slab, so an append past a
// view's length has to reallocate rather than overwrite.
func TestDeliverDoesNotClobberSlab(t *testing.T) {
	p := 8
	m := New(Config{P: p, Cost: model.BSPm(8, 2), Seed: 3})
	m.Superstep(func(c *Ctx) {
		c.Send((c.ID()+1)%p, 1, int64(c.ID()))
	})
	want := make([][]Msg, p)
	for i := 0; i < p; i++ {
		want[i] = append([]Msg(nil), m.Inbox(i)...)
	}
	// Append extra traffic to processor 3's inbox; every other inbox must
	// be unaffected.
	m.Deliver([]Msg{{Src: 0, Dst: 3, Tag: 99, Len: 1, A: 42}})
	for i := 0; i < p; i++ {
		if i == 3 {
			continue
		}
		for k := range want[i] {
			if m.Inbox(i)[k] != want[i][k] {
				t.Fatalf("Deliver to proc 3 clobbered proc %d msg %d", i, k)
			}
		}
	}
	in3 := m.Inbox(3)
	if got := in3[len(in3)-1]; got.Tag != 99 || got.A != 42 {
		t.Fatalf("delivered message missing from proc 3 inbox: %+v", got)
	}
}
