package bsp

import (
	"slices"
	"testing"

	"parbw/internal/model"
)

// An append to one processor's inbox must never clobber a neighboring
// routed bucket: the inbox views are capacity-clamped subslices of one
// shared slab, so an append past a view's length has to reallocate rather
// than overwrite.
func TestInboxAppendDoesNotClobberSlab(t *testing.T) {
	p := 8
	m := New(Config{P: p, Cost: model.BSPm(8, 2), Seed: 3})
	m.Superstep(func(c *Ctx) {
		c.Send((c.ID()+1)%p, 1, int64(c.ID()))
	})
	want := make([][]Msg, p)
	for i := 0; i < p; i++ {
		want[i] = append([]Msg(nil), m.Inbox(i)...)
	}
	in3 := append(m.Inbox(3), Msg{Src: 0, Dst: 3, Tag: 99, Len: 1, A: 42})
	for i := 0; i < p; i++ {
		if !slices.Equal(m.Inbox(i), want[i]) {
			t.Fatalf("append to proc 3's inbox changed proc %d's to %+v", i, m.Inbox(i))
		}
	}
	if got := in3[len(in3)-1]; got.Tag != 99 || got.A != 42 {
		t.Fatalf("appended message missing: %+v", got)
	}
}
