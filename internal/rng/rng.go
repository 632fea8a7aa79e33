// Package rng centralizes seeded pseudo-randomness so that every experiment
// in this repository is reproducible from a single root seed. Independent
// streams (one per node, per trial, per algorithm phase) are derived with
// SplitMix64, the standard seed-expansion function, so streams do not
// overlap even for adjacent seeds.
//
// Two generators sit behind the two constructors. New wraps math/rand's
// additive lagged Fibonacci source: it is seeded O(1) times per run and
// defines every generated graph and deployment, so its bytes are part of
// the published instances. NewStream wraps math/rand/v2's PCG-DXSM, whose
// 16-byte state seeds in O(1) — per-node streams cost one multiply to
// create, not the 4.9 KB state fill of a math/rand source.
package rng

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// StreamGenerator names the generator behind NewStream and how it is
// seeded. Reports record it beside graph.GnpGenerator: results for equal
// seeds are comparable only across equal generator versions.
const StreamGenerator = "pcg-dxsm/v1"

// SplitMix64 advances the SplitMix64 generator once from state x and returns
// the output. It is used purely for seed derivation.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive deterministically combines a root seed with a stream index,
// producing a well-mixed child seed.
func Derive(root int64, stream uint64) int64 {
	h := SplitMix64(uint64(root) ^ SplitMix64(stream))
	return int64(h)
}

// New returns a rand.Rand seeded from root.
func New(root int64) *rand.Rand {
	return rand.New(rand.NewSource(root))
}

// NewStream returns a rand.Rand for the given stream derived from root,
// backed by PCG-DXSM (see StreamGenerator). Reseed moves such a generator
// to another stream in place, so one generator can serve many streams in
// turn without allocating.
func NewStream(root int64, stream uint64) *rand.Rand {
	src := &pcgSource{}
	src.Seed(Derive(root, stream))
	//ftlint:allow detrand src is a PCG seeded from Derive(root, stream), not an opaque source; math/rand has no PCG constructor to name here
	return rand.New(src)
}

// Reseed re-seeds r, a generator from NewStream, in place to exactly the
// state NewStream(root, stream) starts in: every later draw matches a
// fresh stream's, whatever r drew before.
func Reseed(r *rand.Rand, root int64, stream uint64) {
	r.Seed(Derive(root, stream))
}

// pcgSource adapts math/rand/v2's PCG to math/rand's Source64, so
// NewStream keeps returning the *rand.Rand every caller draws from.
type pcgSource struct{ pcg randv2.PCG }

// Seed fills both PCG state words from seed: the high word is seed
// itself, the low word its SplitMix64 image.
func (s *pcgSource) Seed(seed int64) { s.pcg.Seed(uint64(seed), SplitMix64(uint64(seed))) }

func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }

// Int63 keeps the 63 high bits, PCG-DXSM's strongest.
func (s *pcgSource) Int63() int64 { return int64(s.pcg.Uint64() >> 1) }
