package async

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parbw/internal/xrand"
)

func TestAllMessagesDelivered(t *testing.T) {
	p, m := 16, 4
	mach := New(Config{P: p, M: m, Latency: 2})
	var received int64
	done := mach.Run(func(pr *Proc) {
		if pr.ID() == 0 {
			for k := 0; k < p-1; k++ {
				pr.Send(1+k%(p-1), int64(k))
			}
			return
		}
		// Everyone else receives exactly one.
		msg := pr.Recv()
		if msg.Src != 0 {
			t.Errorf("unexpected src %d", msg.Src)
		}
		atomic.AddInt64(&received, 1)
	})
	if received != int64(p-1) {
		t.Fatalf("received %d, want %d", received, p-1)
	}
	if mach.Sent() != p-1 {
		t.Fatalf("Sent = %d", mach.Sent())
	}
	if done <= 0 {
		t.Fatal("zero completion time")
	}
}

// Backpressure enforces the aggregate limit without any schedule: a naive
// one-to-all burst completes within a small factor of the offline bound
// max(n/m, x̄, ȳ) + L — in the async model, the network's flow control does
// what Unbalanced-Send does in the bulk-synchronous model.
func TestBackpressureSelfSchedules(t *testing.T) {
	p, m := 64, 8
	per := 16
	mach := New(Config{P: p, M: m, Latency: 4})
	n := p * per
	done := mach.Run(func(pr *Proc) {
		// Every processor sends per messages (naively, no staggering) and
		// receives per messages.
		for k := 0; k < per; k++ {
			pr.Send((pr.ID()+1+k)%p, int64(k))
		}
		for k := 0; k < per; k++ {
			pr.Recv()
		}
	})
	lb := mach.OfflineBound(n, per, per)
	if done < lb {
		t.Fatalf("completion %v below the lower bound %v", done, lb)
	}
	if done > 2*lb+float64(per) {
		t.Fatalf("completion %v far above the bound %v: backpressure not self-scheduling", done, lb)
	}
}

// A point-imbalanced workload: one sender with x̄ = n messages. Completion
// is governed by the sender's own pipelining (x̄), not by g·x̄ — the async
// machine is globally, not locally, limited.
func TestPointImbalanceAsync(t *testing.T) {
	p, m := 32, 4
	n := 128
	mach := New(Config{P: p, M: m, Latency: 2})
	counts := make([]int64, p)
	done := mach.Run(func(pr *Proc) {
		switch {
		case pr.ID() == 0:
			for k := 0; k < n; k++ {
				pr.Send(1+k%(p-1), int64(k))
			}
		default:
			want := n / (p - 1)
			if pr.ID() <= n%(p-1) {
				want++
			}
			for k := 0; k < want; k++ {
				pr.Recv()
			}
			atomic.AddInt64(&counts[pr.ID()], int64(want))
		}
	})
	lb := mach.OfflineBound(n, n, (n+p-2)/(p-1))
	if done < float64(n) {
		t.Fatalf("completion %v below x̄ = %d", done, n)
	}
	if done > 2*lb {
		t.Fatalf("completion %v vs bound %v", done, lb)
	}
}

// The admission counter is exact: n sends consume exactly n tokens, so the
// last admission departs no earlier than (n−1)/m.
func TestNetworkTokenBucketExact(t *testing.T) {
	p, m := 8, 2
	mach := New(Config{P: p, M: m, Latency: 0})
	done := mach.Run(func(pr *Proc) {
		pr.Send((pr.ID()+1)%p, 1)
		pr.Recv()
	})
	if mach.Sent() != p {
		t.Fatalf("Sent = %d, want %d", mach.Sent(), p)
	}
	if done < float64(p-1)/float64(m) {
		t.Fatalf("completion %v below (n-1)/m", done)
	}
}

func TestWorkAdvancesClock(t *testing.T) {
	mach := New(Config{P: 1, M: 1, Latency: 0})
	done := mach.Run(func(pr *Proc) {
		pr.Work(17)
		pr.Work(-3) // ignored
	})
	if done != 17 {
		t.Fatalf("clock = %v, want 17", done)
	}
}

func TestValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New(Config{P: 0, M: 1}) },
		func() { New(Config{P: 1, M: 0}) },
		func() { New(Config{P: 1, M: 1, Latency: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad config accepted")
				}
			}()
			fn()
		}()
	}
}

func TestSendValidation(t *testing.T) {
	mach := New(Config{P: 2, M: 1, Latency: 0})
	pr := &Proc{id: 0, m: mach} // in-package: drive a processor directly
	defer func() {
		if recover() == nil {
			t.Fatal("invalid dst accepted")
		}
	}()
	pr.Send(5, 1)
}

// Throughput comparison across imbalance levels: the async completion
// tracks the global bound for both balanced and skewed loads.
func TestAsyncTracksGlobalBoundAcrossSkew(t *testing.T) {
	p, m := 32, 8
	for _, skew := range []int{1, 4, 16} {
		heavy := p / skew
		if heavy < 1 {
			heavy = 1
		}
		per := 8 * skew // heavy senders carry more
		// Destinations: uniform rotation, so ȳ ≈ n/p · small factor.
		n := heavy * per
		recvCount := make([]int64, p)
		for k := 0; k < n; k++ {
			recvCount[(k+1)%p]++
		}
		mach := New(Config{P: p, M: m, Latency: 2})
		kseq := make([][]int, p)
		idx := 0
		for s := 0; s < heavy; s++ {
			for j := 0; j < per; j++ {
				kseq[s] = append(kseq[s], (idx+1)%p)
				idx++
			}
		}
		done := mach.Run(func(pr *Proc) {
			for _, dst := range kseq[pr.ID()] {
				pr.Send(dst, 1)
			}
			for k := int64(0); k < recvCount[pr.ID()]; k++ {
				pr.Recv()
			}
		})
		xbar, ybar := per, int(maxOf(recvCount))
		lb := mach.OfflineBound(n, xbar, ybar)
		if done < lb || done > 2.5*lb+float64(xbar) {
			t.Fatalf("skew %d: completion %v vs bound %v", skew, done, lb)
		}
	}
}

func maxOf(xs []int64) int64 {
	m := int64(0)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// backpressure is the async/backpressure experiment's program: every
// processor sends per messages round-robin, then receives per. got[i]
// collects processor i's received messages in order.
func backpressure(p, per int, got [][]Msg) func(*Proc) {
	return func(pr *Proc) {
		for k := 0; k < per; k++ {
			pr.Send((pr.ID()+1+k)%p, int64(k))
		}
		for k := 0; k < per; k++ {
			msg := pr.Recv()
			got[pr.ID()] = append(got[pr.ID()], msg)
		}
	}
}

// The schedule is a function of the program alone: completion time and
// every processor's received (Src, A, Arrival) sequence are identical
// across repeats and core counts.
func TestDeterministicAcrossCoreCounts(t *testing.T) {
	p, m, per := 32, 16, 8
	run := func() (float64, [][]Msg) {
		got := make([][]Msg, p)
		done := New(Config{P: p, M: m, Latency: 4}).Run(backpressure(p, per, got))
		return done, got
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	wantDone, want := run()
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 20; rep++ {
			done, got := run()
			if done != wantDone {
				t.Fatalf("GOMAXPROCS=%d rep %d: completion %v, want %v", procs, rep, done, wantDone)
			}
			for i := range want {
				if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
					t.Fatalf("GOMAXPROCS=%d rep %d: processor %d received %v, want %v", procs, rep, i, got[i], want[i])
				}
			}
		}
	}
	for i := range want {
		for k := 1; k < len(want[i]); k++ {
			if want[i][k].Arrival() < want[i][k-1].Arrival() {
				t.Fatalf("processor %d received arrival %v after %v", i, want[i][k].Arrival(), want[i][k-1].Arrival())
			}
		}
	}
}

// The package doc's bound, over random send-then-receive workloads with
// skewed senders and receivers: max(n/m, x̄+L, ȳ+L) <= T <= n/m + x̄ + ȳ + L.
func TestSendThenReceiveBound(t *testing.T) {
	for seed := uint64(1); seed <= 250; seed++ {
		rng := xrand.New(seed)
		p := 2 + rng.Intn(63)
		m := 1 + rng.Intn(16)
		lat := float64(rng.Intn(9))
		heavy := 1 + rng.Intn(p) // senders with the large load
		hot := rng.Float64() / 2 // share of messages sent to processor 0
		dsts := make([][]int, p)
		recvs := make([]int, p)
		n := 0
		for i := 0; i < p; i++ {
			load := rng.Intn(4)
			if i < heavy {
				load = 1 + rng.Intn(32)
			}
			for k := 0; k < load; k++ {
				d := rng.Intn(p)
				if rng.Float64() < hot {
					d = 0
				}
				dsts[i] = append(dsts[i], d)
				recvs[d]++
				n++
			}
		}
		xbar, ybar := 0, 0
		for i := 0; i < p; i++ {
			xbar, ybar = max(xbar, len(dsts[i])), max(ybar, recvs[i])
		}
		done := New(Config{P: p, M: m, Latency: lat}).Run(func(pr *Proc) {
			for _, d := range dsts[pr.ID()] {
				pr.Send(d, 1)
			}
			for k := 0; k < recvs[pr.ID()]; k++ {
				pr.Recv()
			}
		})
		nm := float64(n) / float64(m)
		lo := max(nm, float64(xbar)+lat, float64(ybar)+lat)
		hi := nm + float64(xbar+ybar) + lat
		if done < lo || done > hi {
			t.Errorf("seed %d (p=%d m=%d L=%v n=%d x̄=%d ȳ=%d): completion %v outside [%v, %v]",
				seed, p, m, lat, n, xbar, ybar, done, lo, hi)
		}
	}
}

// runRecovering runs program on mach and returns the value Run panicked
// with, after checking that every goroutine Run started has exited.
func runRecovering(t *testing.T, mach *Machine, program func(*Proc)) (v any) {
	t.Helper()
	base := runtime.NumGoroutine()
	defer func() {
		v = recover()
		// A goroutine is counted until its last deferred call returns, a
		// moment after Run has seen it finish.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines outlive Run (baseline %d)", runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
	}()
	mach.Run(program)
	return nil
}

type boom struct{ id int }

// A panic in one processor's program reaches Run's caller with its value,
// while the others are parked in Send and Recv, and no goroutine leaks —
// also when a parked program's deferred call tries to Send on the way out.
func TestProgramPanicReachesCaller(t *testing.T) {
	p := 16
	v := runRecovering(t, New(Config{P: p, M: 2, Latency: 1}), func(pr *Proc) {
		pr.Send((pr.ID()+1)%p, 1)
		if pr.ID() == 5 {
			panic(boom{5})
		}
		defer pr.Send(pr.ID(), 3)
		pr.Recv()
		pr.Send((pr.ID()+2)%p, 2)
		pr.Recv()
	})
	if v != (boom{5}) {
		t.Fatalf("Run panicked with %v, want boom{5}", v)
	}
	v = runRecovering(t, New(Config{P: 4, M: 1}), func(pr *Proc) {
		if pr.ID() == 2 {
			runtime.Goexit()
		}
	})
	if s, _ := v.(string); !strings.Contains(s, "processor 2 called runtime.Goexit") {
		t.Fatalf("Goexit: Run panicked with %v", v)
	}
}

// A Recv no message will ever match ends Run with a panic naming the
// waiting processors instead of hanging.
func TestUnmatchedRecvDeadlocks(t *testing.T) {
	v := runRecovering(t, New(Config{P: 6, M: 2, Latency: 1}), func(pr *Proc) {
		if pr.ID()%2 == 0 {
			pr.Send(pr.ID()+1, 1)
		}
		pr.Recv()
	})
	if s, _ := v.(string); !strings.Contains(s, "deadlock") || !strings.Contains(s, "[0 2 4]") {
		t.Fatalf("Run panicked with %v, want a deadlock naming [0 2 4]", v)
	}
}
