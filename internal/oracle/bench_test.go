package oracle

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"parbw/internal/work"
	"parbw/internal/workgen"
)

// fingerprintIR writes one CheckIR outcome into h: the workload's seed,
// its recomputed totals, and every violation's invariant and detail in
// report order.
func fingerprintIR(h hash.Hash, w *work.IR, seed uint64, vs []Violation) {
	sends, flits := w.CountSends()
	fmt.Fprintf(h, "%d %d %d %d\n", seed, sends, flits, len(vs))
	for _, v := range vs {
		fmt.Fprintf(h, "\t%s\t%s\n", v.Invariant, v.Detail)
	}
}

// TestCheckIRFingerprint pins CheckIR's full output — every violation's
// invariant and detail, in order — over generated and adversarial seeds
// 0–99 of every family and one run against the deliberately broken
// workload/conserve oracle. Any change to what the invariants report, or
// to the order they report it in, moves the hash. No detail in this set
// depends on the host's math.Exp: the value is the same under GOARCH=386.
func TestCheckIRFingerprint(t *testing.T) {
	h := sha256.New()
	for _, adversarial := range []bool{false, true} {
		for _, fam := range workgen.Families() {
			for seed := uint64(0); seed < 100; seed++ {
				w := workgen.GenerateIR(workgen.GenConfig{Family: fam, Seed: seed, Adversarial: adversarial})
				fingerprintIR(h, w, seed, CheckIR(w))
			}
		}
	}
	func() {
		BreakForTest = "workload/conserve"
		defer func() { BreakForTest = "" }()
		w := workgen.GenerateIR(workgen.GenConfig{Family: workgen.FamilyBalls, Seed: 1})
		fingerprintIR(h, w, 1, CheckIR(w))
	}()
	const want = "b5fa73b17d56fc3991ed4a33e48f6ef13c0fd326cdc101aedbbdbadb0ca448a7"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("CheckIR fingerprint %s, want %s", got, want)
	}
}

// BenchmarkCheckIR checks one generated workload per iteration, cycling
// through 64 seeds of the family, as a fuzz batch does.
func BenchmarkCheckIR(b *testing.B) {
	for _, fam := range workgen.Families() {
		b.Run(string(fam), func(b *testing.B) {
			ws := make([]*work.IR, 64)
			for i := range ws {
				ws[i] = workgen.GenerateIR(workgen.GenConfig{Family: fam, Seed: uint64(i)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if vs := CheckIR(ws[i%len(ws)]); len(vs) != 0 {
					b.Fatalf("violations: %+v", vs)
				}
			}
		})
	}
}
