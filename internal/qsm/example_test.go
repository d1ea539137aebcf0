package qsm_test

import (
	"fmt"

	"parbw/internal/model"
	"parbw/internal/qsm"
)

// Example shows one QSM(m) phase: eight processors publish values with
// requests spread two per step (m = 2), then a second phase reads them.
// Phase costs are max(w, h, κ, c_m).
func Example() {
	m := qsm.New(qsm.Config{P: 8, Mem: 8, Cost: model.QSMmLinear(2), Seed: 1})
	st := m.Phase(func(c *qsm.Ctx) {
		c.WriteAt(c.ID()/2, c.ID(), int64(c.ID()*3))
	})
	fmt.Printf("write phase cost %v (c_m=%v)\n", st.Cost, st.CM)
	var got int64
	m.Phase(func(c *qsm.Ctx) {
		if c.ID() == 0 {
			got = c.Read(5)
		}
	})
	fmt.Println("read back:", got)
	// Output:
	// write phase cost 4 (c_m=4)
	// read back: 15
}
