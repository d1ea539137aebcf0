// Package xrand provides deterministic, splittable pseudo-random number
// generation for the simulator.
//
// Every randomized component of the library (processor programs, schedulers,
// adversaries, workload generators) draws from an xrand.Source derived from a
// single experiment seed, so that an entire experiment is reproducible from
// that one seed while different logical streams (e.g. each of the p simulated
// processors) remain statistically independent.
//
// The generator is SplitMix64 followed by xoshiro-style output mixing; it is
// not cryptographically secure, which is fine for simulation.
package xrand

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// Source is a small, fast, deterministic PRNG. The zero value is a valid
// source seeded with 0. Source is not safe for concurrent use; derive one
// per goroutine with Split.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// splitmix64 advances a 64-bit state and returns a mixed output. It is the
// reference SplitMix64 step function.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	return splitmix64(&s.state)
}

// Derive returns an independent Source for a (seed, label) pair: the stream
// state is the first 8 bytes of SHA-256(seed as 8 little-endian bytes ||
// label). Distinct labels under one seed yield statistically independent
// streams, and the mapping is byte-stable across platforms and Go versions —
// it depends only on SHA-256 and a fixed little-endian encoding, never on
// host endianness, map order, or hash/maphash process seeds.
//
// Derive is the canonical way to fan one experiment seed out into per-axis
// sub-streams ("workgen/hrel/slots", "contention/m=8", ...). Prefer it over
// ad-hoc arithmetic like New(seed + k): offset seeds produce overlapping
// SplitMix64 sequences (stream k's output is stream k+1's shifted by one),
// while labeled derivation gives every axis its own independent stream and
// names it for debugging.
func Derive(seed uint64, label string) *Source {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	h.Write([]byte(label))
	var sum [sha256.Size]byte
	return &Source{state: binary.LittleEndian.Uint64(h.Sum(sum[:0]))}
}

// Split derives an independent child stream identified by id. Two children
// with distinct ids, or a child and its parent, produce statistically
// independent sequences. Split does not advance the parent.
func (s *Source) Split(id uint64) *Source {
	child := new(Source)
	s.SplitInto(id, child)
	return child
}

// SplitInto writes the child stream Split(id) would return into dst without
// allocating. It exists for columnar engines that derive per-processor
// sources lazily into a flat array: SplitInto(i, &col[i]) yields a source
// byte-for-byte identical to Split(i). Split does not advance the parent.
func (s *Source) SplitInto(id uint64, dst *Source) {
	// Mix the parent state with the id through two rounds so that adjacent
	// ids do not yield correlated child seeds.
	st := s.state ^ (id+1)*0xd1342543de82ef95
	_ = splitmix64(&st)
	_ = splitmix64(&st)
	dst.state = st
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / float64(1<<53)
}

// Bool returns a uniform boolean.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	u := s.Float64()
	// Guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1-u) / rate
}

// Zipf draws from a bounded Zipf distribution over [0, n) with exponent
// alpha > 0 using inverse-CDF over precomputed weights. For repeated draws
// prefer NewZipf.
type Zipf struct {
	cdf []float64
	src *Source
}

// NewZipf builds a Zipf sampler over [0, n) with exponent alpha.
// Rank 0 is the most likely value. It panics if n <= 0 or alpha < 0.
func NewZipf(src *Source, n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	if alpha < 0 {
		panic("xrand: NewZipf with negative alpha")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, src: src}
}

// Draw returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Draw() int {
	u := z.src.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
