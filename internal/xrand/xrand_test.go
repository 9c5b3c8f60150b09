package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs for seed 0 from the splitmix64 reference code.
	s := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestUintnInRange(t *testing.T) {
	s := NewSplitMix64(7)
	f := func(n uint64) bool {
		n = n%1000 + 1
		v := s.Uintn(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUintnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uintn(0) did not panic")
		}
	}()
	NewSplitMix64(1).Uintn(0)
}

func TestFloat64Range(t *testing.T) {
	s := NewSplitMix64(9)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestZipfPaperProportions(t *testing.T) {
	// Paper §3.2 "Multiple Locks Behavior": 8 locks, alpha = 0.9, "the two
	// most busy locks serve 34% and 18% of the requests".
	z := NewZipf(8, 0.9)
	if p := z.Prob(0); math.Abs(p-0.34) > 0.01 {
		t.Errorf("P(lock 0) = %.3f, paper reports 0.34", p)
	}
	if p := z.Prob(1); math.Abs(p-0.18) > 0.01 {
		t.Errorf("P(lock 1) = %.3f, paper reports 0.18", p)
	}
}

func TestZipfEmpiricalMatchesProb(t *testing.T) {
	const n, samples = 8, 200000
	z, rng := NewZipf(n, 0.9), NewSplitMix64(123)
	counts := make([]int, n)
	for i := 0; i < samples; i++ {
		counts[z.Next(rng)]++
	}
	for i := 0; i < n; i++ {
		got := float64(counts[i]) / samples
		want := z.Prob(i)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("item %d: empirical %.3f vs analytic %.3f", i, got, want)
		}
	}
}

func TestZipfAlphaZeroIsUniform(t *testing.T) {
	z := NewZipf(10, 0)
	for i := 0; i < 10; i++ {
		if math.Abs(z.Prob(i)-0.1) > 1e-9 {
			t.Fatalf("alpha=0 Prob(%d) = %v, want 0.1", i, z.Prob(i))
		}
	}
}

func TestZipfCDFMonotoneAndComplete(t *testing.T) {
	f := func(nRaw uint8, alphaRaw uint8) bool {
		n := int(nRaw%64) + 1
		alpha := float64(alphaRaw%30) / 10 // 0.0 .. 2.9
		z := NewZipf(n, alpha)
		prev := 0.0
		for _, c := range z.cdf {
			if c < prev {
				return false
			}
			prev = c
		}
		return z.cdf[n-1] == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfNextInRange(t *testing.T) {
	z, rng := NewZipf(3, 0.9), NewSplitMix64(77)
	for i := 0; i < 10000; i++ {
		v := z.Next(rng)
		if v < 0 || v >= 3 {
			t.Fatalf("Next = %d out of range", v)
		}
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0) did not panic")
		}
	}()
	NewZipf(0, 1)
}

func BenchmarkSplitMix64(b *testing.B) {
	s := NewSplitMix64(1)
	for i := 0; i < b.N; i++ {
		_ = s.Next()
	}
}

func BenchmarkZipfNext(b *testing.B) {
	z, rng := NewZipf(4096, 0.9), NewSplitMix64(1)
	for i := 0; i < b.N; i++ {
		_ = z.Next(rng)
	}
}
