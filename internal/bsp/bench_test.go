package bsp

import (
	"fmt"
	"testing"

	"parbw/internal/model"
)

// benchMachine builds a single-worker machine (so allocation measurements
// are not polluted by worker goroutine scheduling) plus a representative
// communication superstep: every processor sends two single-flit messages on
// its auto-assigned injection slots.
func benchMachine(p int) (*Machine, func()) {
	m := New(Config{P: p, Cost: model.BSPm(32, 4), Seed: 1, Workers: 1})
	body := func(c *Ctx) {
		c.Charge(4)
		c.Send((c.ID()+1)%p, 1, int64(c.ID()))
		c.Send((c.ID()+7)%p, 2, int64(c.ID()))
	}
	return m, func() { m.Superstep(body) }
}

func BenchmarkSuperstepMerge(b *testing.B) {
	_, step := benchMachine(256)
	step() // warm the recycled buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkSuperstepFanout is the pipelined-broadcast superstep shape at
// the scale of an n = p = 4096 sample sort: every processor reads its inbox
// and sends to two children on pinned slots. Comparing workers=2 with
// workers=1 shows what sharing the per-chunk shard arenas across cores costs.
func BenchmarkSuperstepFanout(b *testing.B) {
	const p = 4096
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			m := New(Config{P: p, Cost: model.BSPm(64, 4), Seed: 1, Workers: w})
			body := func(c *Ctx) {
				var a int64
				for _, msg := range c.Recv() {
					a += msg.A
				}
				i := c.ID()
				slot := 2 * (i % (p / 64))
				c.SendAt(slot, (2*i+1)%p, Msg{A: a + 1})
				c.SendAt(slot+1, (2*i+2)%p, Msg{A: a + 2})
			}
			m.Superstep(body) // warm the recycled buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Superstep(body)
			}
		})
	}
}

// The merge path recycles its histogram, receive ledger and inbox buffers;
// after warmup a superstep must not allocate at all.
const superstepAllocBudget = 0

func TestSuperstepMergeAllocs(t *testing.T) {
	_, step := benchMachine(256)
	step() // warm the recycled buffers
	avg := testing.AllocsPerRun(50, step)
	if avg > superstepAllocBudget {
		t.Errorf("superstep allocates %.1f objects/op, budget %d", avg, superstepAllocBudget)
	}
}
