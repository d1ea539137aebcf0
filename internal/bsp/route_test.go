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

// decayBodies are one superstep of traffic per delivery path: every
// processor sends k messages, all to its successor (delivered in place) or
// alternating between its successor and itself (counting-sorted).
var decayBodies = map[string]func(p, k int) func(*Ctx){
	"in-place": func(p, k int) func(*Ctx) {
		return func(c *Ctx) {
			for range k {
				c.Send((c.ID()+1)%p, 0, 1)
			}
		}
	},
	"counting-sort": func(p, k int) func(*Ctx) {
		return func(c *Ctx) {
			for j := range k {
				c.Send((c.ID()+j%2)%p, 0, 1)
			}
		}
	},
}

// peakBuffer is the largest capacity among the machine's message buffers.
func peakBuffer(m *Machine) int {
	return max(cap(m.sends), cap(m.inbox), cap(m.spare))
}

// One oversized superstep must not pin its peak for the machine's lifetime,
// but the release must wait out decayAfter consecutive supersteps under a
// quarter of the peak, so steady workloads never reallocate.
func TestBufferDecay(t *testing.T) {
	const p = 4
	for name, body := range decayBodies {
		m := newBSPg(p, 1, 1)
		m.Superstep(body(p, 1000))
		high := peakBuffer(m)
		if high < 4*1000 {
			t.Fatalf("%s: peak buffer %d after a %d-message superstep", name, high, 4*1000)
		}
		small := body(p, 2)
		for i := range decayAfter - 1 {
			m.Superstep(small)
			if got := peakBuffer(m); got != high {
				t.Fatalf("%s: peak buffer %d after %d low supersteps, want %d retained", name, got, i+1, high)
			}
		}
		for range 3 { // the inbox in use decays once rotated out
			m.Superstep(small)
		}
		if got := peakBuffer(m); got > 4*2*p {
			t.Fatalf("%s: peak buffer %d after %d low supersteps of %d messages, want it released", name, got, decayAfter+2, 2*p)
		}
		if len(m.slots) > 4*2*p {
			t.Fatalf("%s: slot column %d long after the arena decayed", name, len(m.slots))
		}
	}
}

// The delivery paths rotate different buffers into the arena: after an
// in-place superstep the arena is the old inbox, which may be far smaller
// than the slot column sized for an earlier peak. A large superstep on one
// path followed by a long low streak on the other must deliver every small
// superstep intact, keep the slot column as long as the arena, and still
// release the peak.
func TestBufferDecayAcrossPaths(t *testing.T) {
	const p, k = 4, 2
	for _, order := range [][2]string{{"in-place", "counting-sort"}, {"counting-sort", "in-place"}} {
		name := order[0] + " then " + order[1]
		m := newBSPg(p, 1, 1)
		m.Superstep(decayBodies[order[0]](p, 1000))
		small := decayBodies[order[1]](p, k)
		for i := range decayAfter + 2 {
			m.Superstep(small)
			if len(m.slots) < cap(m.sends) {
				t.Fatalf("%s: low superstep %d left a slot column of %d for an arena of %d", name, i+1, len(m.slots), cap(m.sends))
			}
			for d := range p {
				in := m.Inbox(d)
				if len(in) != k {
					t.Fatalf("%s: low superstep %d delivered %d messages to %d, want %d", name, i+1, len(in), d, k)
				}
				for _, msg := range in {
					if msg.Dst != int32(d) {
						t.Fatalf("%s: low superstep %d delivered %+v to %d", name, i+1, msg, d)
					}
				}
			}
		}
		if got := peakBuffer(m); got > 4*k*p {
			t.Fatalf("%s: peak buffer %d after %d low supersteps of %d messages, want it released", name, got, decayAfter+2, k*p)
		}
		if len(m.slots) > 4*k*p {
			t.Fatalf("%s: slot column %d long after the arena decayed", name, len(m.slots))
		}
	}
}

// Any superstep at 25% or more of the peak resets the low-utilization
// streak: a workload oscillating near its capacity never decays.
func TestBufferDecayStreakResets(t *testing.T) {
	const p = 4
	for name, body := range decayBodies {
		m := newBSPg(p, 1, 1)
		m.Superstep(body(p, 1000))
		high := peakBuffer(m)
		for range 3 {
			for range decayAfter - 1 {
				m.Superstep(body(p, 2))
			}
			m.Superstep(body(p, 500)) // half the peak: the streak resets
		}
		if got := peakBuffer(m); got < high {
			t.Fatalf("%s: peak buffer %d, want %d retained across interrupted streaks", name, got, high)
		}
	}
}

// A superstep that grows a buffer starts a fresh streak: the buffer is
// sized to the new demand, so it is not yet oversized.
func TestBufferGrowResetsStreak(t *testing.T) {
	const p = 4
	for name, body := range decayBodies {
		m := newBSPg(p, 1, 1)
		m.Superstep(body(p, 250))
		for range decayAfter - 1 {
			m.Superstep(body(p, 2))
		}
		m.Superstep(body(p, 2500)) // grow
		high := peakBuffer(m)
		m.Superstep(body(p, 2)) // first low superstep of a new streak
		if got := peakBuffer(m); got != high {
			t.Fatalf("%s: peak buffer %d right after a grow, want %d", name, got, high)
		}
	}
}

// bufferBases is the set of backing arrays of the machine's message buffers.
func bufferBases(m *Machine) map[*Msg]bool {
	bases := map[*Msg]bool{}
	for _, b := range [][]Msg{m.sends, m.inbox, m.spare} {
		if cap(b) > 0 {
			bases[&b[:1][0]] = true
		}
	}
	return bases
}

// The message buffers grow to a superstep's demand, and later supersteps of
// the same or a smaller size (at or above a quarter of the peak) rotate the
// same backing arrays instead of allocating new ones.
func TestBufferTakeGrowsAndRecycles(t *testing.T) {
	const p = 4
	for name, body := range decayBodies {
		m := newBSPg(p, 1, 1)
		for range 3 { // until every rotating buffer has been sized
			m.Superstep(body(p, 100))
		}
		if got := peakBuffer(m); got < 100*p {
			t.Fatalf("%s: peak buffer %d after a %d-message superstep", name, got, 100*p)
		}
		want := bufferBases(m)
		for i, k := range []int{100, 60, 100, 25, 80} {
			m.Superstep(body(p, k))
			for b := range bufferBases(m) {
				if !want[b] {
					t.Fatalf("%s: superstep %d of %d messages allocated a new buffer", name, i+1, k*p)
				}
			}
		}
	}
}
