package rng

import (
	randv2 "math/rand/v2"
	"slices"
	"testing"
)

func TestDeriveIsDeterministicAndSpread(t *testing.T) {
	a := Derive(42, 1)
	b := Derive(42, 1)
	if a != b {
		t.Error("Derive not deterministic")
	}
	if Derive(42, 2) == a || Derive(43, 1) == a {
		t.Error("Derive collisions on adjacent inputs")
	}
}

func TestStreamsIndependent(t *testing.T) {
	// Adjacent streams must not produce identical sequences.
	s1 := NewStream(7, 1)
	s2 := NewStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if s1.Int63() == s2.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between adjacent streams", same)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs of the SplitMix64 generator seeded with 0:
	// SplitMix64(state) returns mix(state + γ), so feeding states 0, γ,
	// 2γ reproduces the published sequence.
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	const gamma = 0x9e3779b97f4a7c15
	var state uint64
	for i, w := range want {
		if got := SplitMix64(state); got != w {
			t.Errorf("output %d = %#x, want %#x", i, got, w)
		}
		state += gamma
	}
}

func TestNewSeeded(t *testing.T) {
	r1, r2 := New(5), New(5)
	for i := 0; i < 10; i++ {
		if r1.Int63() != r2.Int63() {
			t.Fatal("New not deterministic")
		}
	}
}

// TestNewStreamKnownAnswers pins the bytes of StreamGenerator: every
// per-node coin and permutation in the solvers and the simulator draws
// from NewStream, so any change here changes every result for equal
// seeds and must come with a new StreamGenerator version.
func TestNewStreamKnownAnswers(t *testing.T) {
	if StreamGenerator != "pcg-dxsm/v1" {
		t.Fatalf("StreamGenerator = %q; update the known answers with the version", StreamGenerator)
	}
	cases := []struct {
		root   int64
		stream uint64
		want   []uint64
	}{
		{1, 1, []uint64{0x85e69cd258114449, 0x673466e806728ca3, 0x36771e80145b987e, 0x5e34929a31e5e9bc}},
		{42, 7, []uint64{0x9f6beec474ee236f, 0x250fa9f46384e3cf, 0x9289b07770094a10, 0x98d14b12c8f4b498}},
	}
	for _, c := range cases {
		r := NewStream(c.root, c.stream)
		for i, w := range c.want {
			if got := r.Uint64(); got != w {
				t.Errorf("NewStream(%d, %d) output %d = %#x, want %#x", c.root, c.stream, i, got, w)
			}
		}
		// Int63 is the top 63 bits of the same output.
		r = NewStream(c.root, c.stream)
		if got, want := r.Int63(), int64(c.want[0]>>1); got != want {
			t.Errorf("NewStream(%d, %d).Int63() = %d, want %d", c.root, c.stream, got, want)
		}
	}
	// The adapter is PCG-DXSM seeded with (seed, SplitMix64(seed)).
	seed := uint64(Derive(1, 1))
	if got, want := NewStream(1, 1).Uint64(), randv2.NewPCG(seed, SplitMix64(seed)).Uint64(); got != want {
		t.Errorf("NewStream(1, 1) = %#x, PCG(seed, SplitMix64(seed)) = %#x", got, want)
	}
}

// TestStreamReseedInPlaceMatchesFresh: the rounding sweeps reuse one
// generator per worker and re-seed it per node, which must be
// draw-for-draw identical to a fresh NewStream — across every method
// the solvers call, and after the generator has been advanced.
func TestStreamReseedInPlaceMatchesFresh(t *testing.T) {
	reused := NewStream(0, 0)
	for stream := uint64(1); stream <= 50; stream++ {
		reused.Intn(97) // leave state behind from the previous stream
		Reseed(reused, 9, stream)
		fresh := NewStream(9, stream)
		if a, b := reused.Float64(), fresh.Float64(); a != b {
			t.Fatalf("stream %d: Float64 %v after re-seed, %v fresh", stream, a, b)
		}
		for i := 1; i <= 20; i++ {
			if a, b := reused.Intn(i), fresh.Intn(i); a != b {
				t.Fatalf("stream %d: Intn(%d) %d after re-seed, %d fresh", stream, i, a, b)
			}
		}
		if a, b := reused.Perm(7), fresh.Perm(7); !slices.Equal(a, b) {
			t.Fatalf("stream %d: Perm %v after re-seed, %v fresh", stream, a, b)
		}
	}
}
