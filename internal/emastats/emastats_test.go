package emastats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEMASeedsWithFirstValue(t *testing.T) {
	e := NewEMA(0.5)
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first observation not used as seed: %v", e.Value())
	}
	if !e.Seeded() {
		t.Fatal("Seeded false after Add")
	}
}

func TestEMAConvergesToConstant(t *testing.T) {
	e := NewEMA(0.25)
	e.Add(0)
	for i := 0; i < 200; i++ {
		e.Add(8)
	}
	if math.Abs(e.Value()-8) > 1e-6 {
		t.Fatalf("EMA did not converge: %v", e.Value())
	}
}

func TestEMASmoothing(t *testing.T) {
	e := NewEMA(0.5)
	e.Add(0)
	e.Add(10)
	if e.Value() != 5 {
		t.Fatalf("EMA(0.5) after 0,10 = %v, want 5", e.Value())
	}
}

func TestEMAStaysWithinObservedBounds(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEMA(0.3)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			x := float64(r)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
			e.Add(x)
			if e.Value() < lo-1e-9 || e.Value() > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewEMAPanicsOnBadWeight(t *testing.T) {
	for _, w := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEMA(%v) did not panic", w)
				}
			}()
			NewEMA(w)
		}()
	}
}
