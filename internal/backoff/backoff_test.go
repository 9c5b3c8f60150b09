package backoff

import (
	"testing"
	"time"

	"gls/internal/xrand"
)

func TestSpinnerProgresses(t *testing.T) {
	var s Spinner
	for i := 0; i < 100; i++ {
		s.Spin()
	}
	if s.round == 0 && !s.singleProc {
		t.Fatal("spinner never advanced its round counter")
	}
}

func TestSpinnerDoesNotStallSingleProc(t *testing.T) {
	// Even a long spin sequence must complete quickly because the policy
	// yields rather than burning the sole processor.
	var s Spinner
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10_000; i++ {
			s.Spin()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("10k spin steps did not finish in 10s")
	}
}

func TestPauseBounded(t *testing.T) {
	start := time.Now()
	Pause(1 << maxPauseRounds)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("maximum pause burned more than 100ms")
	}
}

func TestJitterNextBounds(t *testing.T) {
	rng := xrand.NewSplitMix64(42)
	prev := uint32(1 << maxPauseRounds)
	seen := make(map[uint32]bool)
	for i := 0; i < 10_000; i++ {
		prev = JitterNext(rng, prev)
		if prev < jitterFloor || prev > jitterCeil {
			t.Fatalf("jitter step %d = %d, want within [%d, %d]", i, prev, jitterFloor, jitterCeil)
		}
		seen[prev] = true
	}
	// Decorrelated jitter must actually spread: thousands of steps landing
	// on a handful of values would mean the waiters still probe in phase.
	if len(seen) < 100 {
		t.Fatalf("only %d distinct pause lengths over 10k steps", len(seen))
	}
}

// TestJitterNextDeterministic pins that equal seeds replay equal sequences
// — the property the chaos harness relies on for reproducible runs.
func TestJitterNextDeterministic(t *testing.T) {
	a, b := xrand.NewSplitMix64(7), xrand.NewSplitMix64(7)
	pa, pb := uint32(256), uint32(256)
	for i := 0; i < 1000; i++ {
		pa, pb = JitterNext(a, pa), JitterNext(b, pb)
		if pa != pb {
			t.Fatalf("sequences diverged at step %d: %d vs %d", i, pa, pb)
		}
	}
}

// TestJitterNextRecoversFromFloor pins the lower edge: once the previous
// pause collapses to the floor, 3*prev still exceeds it, so the sequence
// can climb back instead of latching at the minimum.
func TestJitterNextRecoversFromFloor(t *testing.T) {
	rng := xrand.NewSplitMix64(3)
	grew := false
	prev := uint32(jitterFloor)
	for i := 0; i < 100; i++ {
		prev = JitterNext(rng, prev)
		if prev > jitterFloor {
			grew = true
			break
		}
	}
	if !grew {
		t.Fatal("jitter latched at the floor")
	}
}

func BenchmarkSpinStep(b *testing.B) {
	var s Spinner
	for i := 0; i < b.N; i++ {
		s.Spin()
	}
}
