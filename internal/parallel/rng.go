package parallel

import "math"

// RNG is the allocation-free random generator for simulation hot loops.
// It wraps the same splitmix64 core SeedStream uses for seed derivation:
// 16 bytes of state that live happily on the caller's stack, versus the
// ~5 KB lagged-Fibonacci state a math/rand.Rand heap-allocates and then
// spends 607 mixing steps seeding. Every method is deterministic in the
// seed, which is what lets the trace generator and MAC simulator keep
// the engine's bit-identical-for-any-worker-count contract while
// generating millions of draws without a single heap allocation.
//
// An RNG must not be shared across goroutines; give each trial its own,
// seeded from a SeedStream.
type RNG struct {
	state uint64
	// spare holds the second output of the last Marsaglia polar pair
	// while pending is spareReady. While it is spareLazy, the pair was
	// drawn by SkipNormFloat64: spare holds its v and spareS its s, and
	// NormFloat64 finishes the output from them.
	spare, spareS float64
	pending       uint8
}

// The states of RNG.pending.
const (
	spareNone = iota
	spareReady
	spareLazy
)

// NewRNG returns a generator seeded with seed. As with SeedStream, roots
// differing in any bit yield unrelated sequences (the first output is
// already one avalanche step away from the seed).
func NewRNG(seed int64) RNG {
	return RNG{state: uint64(seed)}
}

// Uint64 returns the next 64 uniform random bits.
func (r *RNG) Uint64() uint64 {
	r.state += goldenGamma
	return mix64(r.state)
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method, generating values in deterministic pairs. It trades a few
// nanoseconds versus math/rand's ziggurat for zero tables and full
// inlining of the uniform draws.
func (r *RNG) NormFloat64() float64 {
	if p := r.pending; p != spareNone {
		r.pending = spareNone
		if p == spareLazy {
			s := r.spareS
			return r.spare * math.Sqrt(-2*math.Log(s)/s)
		}
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.pending = spareReady
		return u * f
	}
}

// SkipNormFloat64 advances the generator exactly as one NormFloat64
// call would, for a caller that does not read the variate. It draws the
// same uniforms through the same rejection loop but computes no
// logarithm or square root: a fresh pair keeps its v and s, and a later
// NormFloat64 finishes that spare with the same expression, so skips and
// draws mix without changing a bit of either stream.
func (r *RNG) SkipNormFloat64() {
	if r.pending != spareNone {
		r.pending = spareNone
		return
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		r.spare, r.spareS = v, s
		r.pending = spareLazy
		return
	}
}
