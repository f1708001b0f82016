package mesh

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestPenaltyPaperExample(t *testing.T) {
	// §4.2: p1=0.8, p2=0.6, δ=0.25 → penalty 5/12, overhead 1/3.
	penalty, overhead, err := Penalty(0.8, 0.6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(penalty-5.0/12) > 1e-9 {
		t.Errorf("penalty = %v, want 5/12", penalty)
	}
	if math.Abs(overhead-1.0/3) > 1e-9 {
		t.Errorf("overhead = %v, want 1/3", overhead)
	}
}

func TestPenaltySmallDelta(t *testing.T) {
	if _, _, err := Penalty(0.8, 0.6, 0.05); !errors.Is(err, ErrSamePick) {
		t.Errorf("err = %v, want ErrSamePick", err)
	}
}

func TestPenaltyArgumentOrder(t *testing.T) {
	// Swapped probabilities must give the same answer.
	p1, o1, e1 := Penalty(0.8, 0.6, 0.25)
	p2, o2, e2 := Penalty(0.6, 0.8, 0.25)
	if e1 != nil || e2 != nil || p1 != p2 || o1 != o2 {
		t.Error("Penalty not symmetric in argument order")
	}
}

func TestPenaltyInvalid(t *testing.T) {
	if _, _, err := Penalty(0, 0.5, 0.3); err == nil {
		t.Error("zero probability accepted")
	}
}

func TestPenaltyProperty(t *testing.T) {
	// Whenever the error can flip the choice, penalty and overhead are
	// non-negative and consistent: overhead = penalty × p1.
	f := func(a, b, d float64) bool {
		p1 := 0.05 + math.Mod(math.Abs(a), 0.95)
		p2 := 0.05 + math.Mod(math.Abs(b), 0.95)
		delta := math.Mod(math.Abs(d), 0.5)
		pen, ov, err := Penalty(p1, p2, delta)
		if errors.Is(err, ErrSamePick) {
			return true
		}
		if err != nil {
			return false
		}
		hi := math.Max(p1, p2)
		return pen >= 0 && ov >= 0 && math.Abs(ov-pen*hi) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
