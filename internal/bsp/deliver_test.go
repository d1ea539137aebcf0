package bsp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"parbw/internal/model"
	"parbw/internal/xrand"
)

// plannedSend is one send of a generated superstep: an auto send takes the
// processor's next free slot through SendMsg, any other goes through SendAt.
type plannedSend struct {
	auto bool
	slot int
	dst  int
	msg  Msg
}

// plan is one superstep's traffic: each processor's sends in program order.
type plan [][]plannedSend

// runPlan executes pl as one superstep of m. Each program checks, after its
// own sends, that its Recv still holds prev[i]: a send that landed in the
// inbox being read would change it.
func runPlan(t *testing.T, m *Machine, pl plan, prev [][]Msg) Stats {
	t.Helper()
	return m.Superstep(func(c *Ctx) {
		i := c.ID()
		c.Charge(len(pl[i]))
		for _, s := range pl[i] {
			if s.auto {
				c.SendMsg(s.dst, s.msg)
			} else {
				c.SendAt(s.slot, s.dst, s.msg)
			}
		}
		if !slices.Equal(c.Recv(), prev[i]) {
			t.Errorf("proc %d: Recv changed to %+v during its superstep, want %+v", i, c.Recv(), prev[i])
		}
	})
}

// refSuperstep is the reference router and pricer. It resolves each
// processor's auto slots, stably sorts each processor's sends by slot,
// appends every message to its destination's inbox in source order, and
// prices the superstep from its own per-step histogram.
func refSuperstep(cost model.Cost, p int, pl plan) ([][]Msg, Stats) {
	type placed struct {
		slot int
		msg  Msg
	}
	inbox := make([][]Msg, p)
	recv := make([]int, p)
	var hist []int
	var st Stats
	for i, sends := range pl {
		st.W = max(st.W, len(sends))
		auto, sent := 0, 0
		var run []placed
		for _, s := range sends {
			slot := s.slot
			if s.auto {
				slot = auto
			}
			msg := s.msg
			fl := msg.Flits()
			msg.Src, msg.Dst, msg.Len = int32(i), int32(s.dst), int32(fl)
			auto = max(auto, slot+fl)
			sent += fl
			recv[s.dst] += fl
			for len(hist) < slot+fl {
				hist = append(hist, 0)
			}
			for f := slot; f < slot+fl; f++ {
				hist[f]++
			}
			run = append(run, placed{slot, msg})
		}
		slices.SortStableFunc(run, func(a, b placed) int { return a.slot - b.slot })
		for _, r := range run {
			inbox[r.msg.Dst] = append(inbox[r.msg.Dst], r.msg)
		}
		st.HSend = max(st.HSend, sent)
		st.N += sent
		st.Steps = max(st.Steps, auto)
	}
	for _, r := range recv {
		st.HRecv = max(st.HRecv, r)
	}
	st.H = max(st.HSend, st.HRecv)
	for _, mt := range hist {
		st.MaxSlot = max(st.MaxSlot, mt)
		if cost.Global() && mt > cost.M {
			st.Overload++
		}
	}
	if cost.Kind == model.KindBSPm {
		st.CM = cost.CM(hist)
	}
	st.Cost = cost.BSPSuperstep(st.W, st.H, st.N, st.CM)
	return inbox, st
}

// genPlan draws one valid superstep for p processors. Its destinations are
// uniformly random (so some destination is usually interrupted), a
// permutation, or a gather to one root. A fifth of the processors send
// nothing; the others send 1–5 messages of 1–3 flits, and one in ten a run
// longer than insertionSortMax. A run's slots are automatic, explicit and
// ascending with gaps, or disjoint explicit intervals sent in shuffled order
// and followed by a few auto sends; in half the supersteps no run is
// shuffled.
func genPlan(rng *xrand.Source, p int) plan {
	mode, styles := rng.Intn(3), 2+rng.Intn(2)
	perm, root := rng.Perm(p), rng.Intn(p)
	dst := func(i int) int {
		switch mode {
		case 0:
			return rng.Intn(p)
		case 1:
			return perm[i]
		}
		return root
	}
	msg := func() Msg {
		return Msg{Tag: uint8(rng.Intn(4)), Len: int32(rng.Intn(4)), A: int64(rng.Intn(1000)), B: int64(rng.Intn(2)), C: int64(rng.Uint64() >> 1)}
	}
	pl := make(plan, p)
	for i := range pl {
		if rng.Intn(5) == 0 {
			continue
		}
		k := 1 + rng.Intn(5)
		if rng.Intn(10) == 0 {
			k = insertionSortMax + 1 + rng.Intn(20)
		}
		sends := make([]plannedSend, k)
		for j := range sends {
			sends[j] = plannedSend{dst: dst(i), msg: msg()}
		}
		switch rng.Intn(styles) {
		case 0:
			for j := range sends {
				sends[j].auto = true
			}
		case 1:
			cursor := 0
			for j := range sends {
				if rng.Intn(3) == 0 {
					sends[j].auto = true
				} else {
					sends[j].slot = cursor + rng.Intn(3)
				}
				cursor = max(cursor, sends[j].slot) + sends[j].msg.Flits()
			}
		default:
			autos := rng.Intn(3)
			cursor := 0
			for j := range sends[:k-min(autos, k-1)] {
				sends[j].slot = cursor + rng.Intn(3)
				cursor = sends[j].slot + sends[j].msg.Flits()
			}
			explicit := sends[:k-min(autos, k-1)]
			rng.Shuffle(len(explicit), func(a, b int) { explicit[a], explicit[b] = explicit[b], explicit[a] })
			for j := len(explicit); j < k; j++ {
				sends[j].auto = true
			}
		}
		pl[i] = sends
	}
	return pl
}

// Both delivery paths must deliver exactly what the reference router does:
// seeded random supersteps on machines of 1 to 64 processors, six in a row
// per machine so the arena, inbox and spare rotate through both paths, each
// compared inbox by inbox and Stats field by Stats field.
func TestDeliveryMatchesReference(t *testing.T) {
	var paths [2]int // supersteps delivered by counting sort, in place
	costs := []model.Cost{model.BSPg(3, 2), model.BSPm(4, 2), model.BSPmLinear(2, 3), model.BSPSelfSched(3, 1)}
	for seed := uint64(1); seed <= 200; seed++ {
		rng := xrand.New(seed)
		p := 1 + rng.Intn(64)
		cost := costs[rng.Intn(len(costs))]
		m := New(Config{P: p, Cost: cost, Seed: seed})
		prev := make([][]Msg, p)
		for step := range 6 {
			pl := genPlan(rng, p)
			want, wantSt := refSuperstep(cost, p, pl)
			if got := runPlan(t, m, pl, prev); got != wantSt {
				t.Fatalf("seed %d p=%d step %d: Stats %+v, want %+v", seed, p, step, got, wantSt)
			}
			if !m.scattered && len(m.unordered) == 0 {
				paths[1]++
			} else {
				paths[0]++
			}
			for d := range p {
				if got := m.Inbox(d); !slices.Equal(got, want[d]) {
					t.Fatalf("seed %d p=%d step %d: inbox %d = %+v, want %+v", seed, p, step, d, got, want[d])
				}
			}
			prev = want
		}
	}
	if paths[0] < 100 || paths[1] < 100 {
		t.Errorf("%d supersteps counting-sorted and %d delivered in place, want at least 100 of each", paths[0], paths[1])
	}
}

// bigPlan is a superstep far larger than genPlan's: every processor sends
// 100 to 300 auto-slotted messages, all to its image under perm (delivered
// in place) or each to a random destination (counting-sorted).
func bigPlan(rng *xrand.Source, p int) plan {
	perm, scattered := rng.Perm(p), rng.Intn(2) == 0
	pl := make(plan, p)
	for i := range pl {
		pl[i] = make([]plannedSend, 100+rng.Intn(201))
		for j := range pl[i] {
			d := perm[i]
			if scattered {
				d = rng.Intn(p)
			}
			pl[i][j] = plannedSend{auto: true, dst: d, msg: Msg{A: int64(j)}}
		}
	}
	return pl
}

// The buffers a machine rotates must stay correct through growth and decay:
// long runs of genPlan supersteps, broken by an occasional bigPlan peak,
// mix both delivery paths across several low-utilization streaks, each
// superstep compared with the reference router.
func TestDeliveryMatchesReferenceThroughDecay(t *testing.T) {
	cost := model.BSPm(4, 2)
	for seed := uint64(1); seed <= 200; seed++ {
		rng := xrand.New(seed)
		p := 1 + rng.Intn(16)
		m := New(Config{P: p, Cost: cost, Seed: seed})
		prev := make([][]Msg, p)
		for step := range 4 * decayAfter {
			pl := genPlan(rng, p)
			if rng.Intn(decayAfter) == 0 {
				pl = bigPlan(rng, p)
			}
			want, wantSt := refSuperstep(cost, p, pl)
			if got := runPlan(t, m, pl, prev); got != wantSt {
				t.Fatalf("seed %d p=%d step %d: Stats %+v, want %+v", seed, p, step, got, wantSt)
			}
			for d := range p {
				if got := m.Inbox(d); !slices.Equal(got, want[d]) {
					t.Fatalf("seed %d p=%d step %d: inbox %d = %+v, want %+v", seed, p, step, d, got, want[d])
				}
			}
			prev = want
		}
	}
}

// deliveredInPlace runs pl as one superstep of m and reports whether the
// merge handed the send arena itself to the next inbox.
func deliveredInPlace(t *testing.T, m *Machine, pl plan) bool {
	var arena []Msg
	m.Superstep(func(c *Ctx) {
		for _, s := range pl[c.ID()] {
			c.SendAt(s.slot, s.dst, s.msg)
		}
		arena = m.sends
	})
	if len(arena) == 0 {
		t.Fatal("plan sent nothing")
	}
	return len(m.inbox) > 0 && &m.inbox[0] == &arena[0]
}

// Permutations, gathers and broadcast trees take the in-place path; a
// destination whose messages another destination's interrupt, or a run sent
// out of slot order, takes the counting sort. Either way the inboxes match
// the reference router's.
func TestContiguousTrafficDeliversInPlace(t *testing.T) {
	const p, root = 16, 5
	one := func(slot, dst int) plannedSend { return plannedSend{slot: slot, dst: dst, msg: Msg{A: int64(dst)}} }
	perm, gather, tree, interrupted, unordered := make(plan, p), make(plan, p), make(plan, p), make(plan, p), make(plan, p)
	for i := range p {
		perm[i] = []plannedSend{one(0, (5*i+3)%p)}
		if i != root {
			gather[i] = []plannedSend{one(i, root)}
		}
		// The binary tree rooted at root, as the pipelined vector broadcast
		// builds it: virtual id v forwards to 2v+1 and 2v+2.
		v := (i - root + p) % p
		for c := range 2 {
			if child := 2*v + 1 + c; child < p {
				tree[i] = append(tree[i], one(c, (child+root)%p))
			}
		}
		interrupted[i] = []plannedSend{one(0, (i+1)%p), one(1, i)}
		unordered[i] = []plannedSend{one(1, (i+1)%p), one(0, (i+1)%p)}
	}
	for _, tc := range []struct {
		name    string
		pl      plan
		inPlace bool
	}{
		{"permutation", perm, true},
		{"gather", gather, true},
		{"broadcast tree", tree, true},
		{"interrupted destination", interrupted, false},
		{"run out of slot order", unordered, false},
	} {
		cost := model.BSPm(4, 2)
		m := New(Config{P: p, Cost: cost, Seed: 1})
		for step := range 3 {
			if got := deliveredInPlace(t, m, tc.pl); got != tc.inPlace {
				t.Errorf("%s step %d: delivered in place = %v, want %v", tc.name, step, got, tc.inPlace)
			}
			want, _ := refSuperstep(cost, p, tc.pl)
			for d := range p {
				if got := m.Inbox(d); !slices.Equal(got, want[d]) {
					t.Fatalf("%s step %d: inbox %d = %+v, want %+v", tc.name, step, d, got, want[d])
				}
			}
		}
	}
}

// A slot column narrower than int must not wrap: a SendAt slot past
// math.MaxInt32 panics at the send, naming the processor and the slot.
func TestSlotBeyondColumnPanics(t *testing.T) {
	wide := int64(1<<31 - 1)
	wide++
	if int(wide) < 0 {
		t.Skip("int is 32 bits: every non-negative slot fits the column")
	}
	m := newBSPmLin(2, 1, 1)
	defer func() {
		want := fmt.Sprintf("bsp: proc 1 SendAt slot %d past the last injection step", wide)
		if r, _ := recover().(string); !strings.HasPrefix(r, want) {
			t.Fatalf("recovered %q, want prefix %q", r, want)
		}
	}()
	m.Superstep(func(c *Ctx) {
		if c.ID() == 1 {
			c.SendAt(int(wide), 0, Msg{})
		}
	})
}
