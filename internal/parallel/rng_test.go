package parallel

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverge")
		}
	}
	c := NewRNG(100)
	if a.Uint64() == c.Uint64() {
		t.Error("adjacent seeds produced identical next outputs")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	rng := NewRNG(1)
	for i := 0; i < 100000; i++ {
		if f := rng.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

// TestRNGMoments sanity-checks the generator's first two moments: the
// uniform and normal outputs that drive every fade and fate draw must
// not be biased, or trace statistics silently drift from the reference
// implementation's.
func TestRNGMoments(t *testing.T) {
	const n = 1_000_000
	rng := NewRNG(42)
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := rng.Float64()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.002 {
		t.Errorf("uniform mean %.4f, want 0.5", mean)
	}
	if v := sum2/n - mean*mean; math.Abs(v-1.0/12) > 0.002 {
		t.Errorf("uniform variance %.4f, want %.4f", v, 1.0/12)
	}

	sum, sum2 = 0, 0
	var lag1 float64
	prev := rng.NormFloat64()
	for i := 0; i < n; i++ {
		x := rng.NormFloat64()
		sum += x
		sum2 += x * x
		lag1 += x * prev
		prev = x
	}
	mean = sum / n
	if math.Abs(mean) > 0.005 {
		t.Errorf("normal mean %.4f, want 0", mean)
	}
	if v := sum2/n - mean*mean; math.Abs(v-1) > 0.01 {
		t.Errorf("normal variance %.4f, want 1", v)
	}
	if c := lag1 / n; math.Abs(c) > 0.005 {
		t.Errorf("normal lag-1 autocorrelation %.4f, want ~0", c)
	}
}

func TestRNGZeroAllocs(t *testing.T) {
	rng := NewRNG(17)
	var sink float64
	allocs := testing.AllocsPerRun(1000, func() {
		sink += rng.Float64() + rng.NormFloat64()
	})
	if allocs != 0 {
		t.Errorf("RNG draws allocate %v times per pair, want 0", allocs)
	}
	_ = sink
}

// polarRNG is the polar generator as it was before SkipNormFloat64: the
// same splitmix64 core, with NormFloat64 always computing both outputs
// of a pair. It is the oracle for FuzzSkipNormMatchesNorm.
type polarRNG struct {
	state    uint64
	spare    float64
	hasSpare bool
}

func (r *polarRNG) Float64() float64 {
	r.state += goldenGamma
	return float64(mix64(r.state)>>11) * (1.0 / (1 << 53))
}

func (r *polarRNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
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
		r.hasSpare = true
		return u * f
	}
}

// FuzzSkipNormMatchesNorm decodes ops into NormFloat64 (0), Float64 (1)
// and SkipNormFloat64 (2) calls on one RNG, and makes the same calls on
// a polarRNG from the same seed, except that it draws a normal wherever
// the RNG skips one. Every value the RNG returns must equal the
// oracle's bit for bit, and so must the next 8 normals of both, which
// read any spare left pending.
func FuzzSkipNormMatchesNorm(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{2, 0})
	f.Add(int64(3), []byte{0, 2, 2, 0, 1, 2})
	f.Add(int64(4), []byte{2, 1, 0, 0, 2, 2, 2, 1, 1, 0})
	f.Add(int64(-7), []byte{2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add(int64(42), []byte{1, 2, 1, 0, 1, 2, 1, 1, 0, 2, 0, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		r := NewRNG(seed)
		o := polarRNG{state: uint64(seed)}
		for i, op := range ops {
			switch op % 3 {
			case 0:
				if got, want := r.NormFloat64(), o.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("op %d: NormFloat64 = %v, oracle %v", i, got, want)
				}
			case 1:
				if got, want := r.Float64(), o.Float64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("op %d: Float64 = %v, oracle %v", i, got, want)
				}
			case 2:
				r.SkipNormFloat64()
				o.NormFloat64()
			}
		}
		for i := 0; i < 8; i++ {
			if got, want := r.NormFloat64(), o.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("normal %d after the ops: %v, oracle %v", i, got, want)
			}
		}
	})
}

var benchSink float64

func BenchmarkNormFloat64(b *testing.B) {
	r := NewRNG(1)
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += r.NormFloat64()
	}
	benchSink = sum
}

func BenchmarkSkipNormFloat64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.SkipNormFloat64()
	}
	benchSink = r.Float64()
}
