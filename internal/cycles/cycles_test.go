package cycles

import (
	"testing"
	"time"
)

func TestCalibrateSetsRate(t *testing.T) {
	Calibrate()
	if itersPerNano.Load() == 0 {
		t.Fatal("calibration left rate at zero")
	}
}

func TestWaitZeroReturnsImmediately(t *testing.T) {
	start := time.Now()
	Wait(0)
	if time.Since(start) > 10*time.Millisecond {
		t.Fatal("Wait(0) took unreasonably long")
	}
}

func TestWaitScalesRoughlyLinearly(t *testing.T) {
	Calibrate()
	// Measure a large and a 4x-larger wait; the ratio should be near 4.
	// Generous bounds: CI machines get preempted. The two sizes alternate
	// and each side keeps its fastest of nine, so a burst of load from a
	// neighbouring process lands on both sides or on neither, and never
	// decides the ratio alone.
	const base = 2_000_000 // ~0.8ms at 2.5GHz
	short, long := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 9; i++ {
		short = min(short, timeWait(base))
		long = min(long, timeWait(4*base))
	}
	ratio := float64(long) / float64(short)
	if ratio < 2 || ratio > 8 {
		t.Errorf("Wait(4x)/Wait(x) ratio = %.2f, want roughly 4", ratio)
	}
}

func timeWait(n uint64) time.Duration {
	start := time.Now()
	Wait(n)
	return time.Since(start)
}

func TestItersForCyclesMinimumOne(t *testing.T) {
	Calibrate()
	if got := itersForCycles(1); got == 0 {
		t.Fatal("itersForCycles(1) = 0, want >= 1")
	}
}

// TestDurationConversionsRoundTrip: a microsecond is 2 500 cycles at the
// nominal 2.5 GHz, and no duration converts to negative cycles.
func TestDurationConversionsRoundTrip(t *testing.T) {
	if got := FromDuration(time.Microsecond); got != 2500 {
		t.Fatalf("FromDuration(1µs) = %d cycles, want 2500", got)
	}
	if got := FromDuration(-time.Second); got != 0 {
		t.Fatalf("FromDuration(negative) = %d, want 0", got)
	}
}

func BenchmarkWait1024(b *testing.B) {
	Calibrate()
	for i := 0; i < b.N; i++ {
		Wait(1024)
	}
}
