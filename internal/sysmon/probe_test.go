package sysmon

import (
	"runtime/metrics"
	"testing"
	"time"
)

func TestBucketMid(t *testing.T) {
	buckets := []float64{0, 0.001, 0.01, 1e9} // last bucket open-ended-ish
	if got := bucketMid(buckets, 0); got != 0.0005 {
		t.Fatalf("bucketMid[0] = %v, want 0.0005", got)
	}
	if got := bucketMid(buckets, 1); got != 0.0055 {
		t.Fatalf("bucketMid[1] = %v, want 0.0055", got)
	}
	// The open-ended boundary is clamped to 100ms.
	if got := bucketMid(buckets, 2); got != (0.01+0.1)/2 {
		t.Fatalf("bucketMid[2] = %v, want clamp to (0.01+0.1)/2", got)
	}
	// Negative lower bounds (the histogram's first bucket) clamp to 0.
	neg := []float64{-1, 0.002}
	if got := bucketMid(neg, 0); got != 0.001 {
		t.Fatalf("bucketMid(neg) = %v, want 0.001", got)
	}
}

// synthHist is a cumulative scheduling-latency histogram with three buckets
// whose mid-points are 0.5 µs, 0.5 ms and 10 ms: a hand-over, a wake-up on a
// halted CPU, a time slice.
func synthHist(handovers, wakeups, slices uint64) *metrics.Float64Histogram {
	return &metrics.Float64Histogram{
		Buckets: []float64{0, 1e-6, 0.999e-3, 19.001e-3},
		Counts:  []uint64{handovers, wakeups, slices},
	}
}

// TestWaitingEstimate drives the windowed estimator with synthetic
// histogram growth: what a window votes, and that the verdict moves only
// when two windows in a row agree.
func TestWaitingEstimate(t *testing.T) {
	steps := []struct {
		name                       string
		wall                       time.Duration
		handovers, wakeups, slices uint64 // recorded during this window
		want                       bool   // the verdict after it
	}{
		// Everything the process did before the monitor's first window is
		// in the first read; it is a baseline, not a measurement.
		{"history before the first window is not load", window, 1 << 20, 1 << 10, 1 << 10, false},
		{"busy but nobody waits", window, 5_000, 4, 0, false},
		// One recorded time-slice wait: the monitor's own, for all anyone
		// can tell. 10 ms / 100 ms is over the threshold; alone it decides
		// nothing.
		{"one window over decides nothing", window, 100, 0, 1, false},
		{"calm again", window, 100, 0, 0, false},
		{"over", window, 100, 0, 1, false},
		{"over twice running raises", window, 100, 0, 2, true},
		// CPU-bound goroutines are recorded one transition in eight: a
		// window of real oversubscription can hold no sample at all.
		{"an empty window keeps the verdict", window, 0, 0, 0, true},
		{"over again", window, 0, 0, 3, true},
		{"one calm window keeps it", window, 100, 2, 0, true},
		{"two calm windows clear it", window, 100, 2, 0, false},
		// The same waiting over a window that closed late (the monitor's
		// ticks slip when every P is busy) is a smaller share of it.
		{"a late edge divides by the wall time that passed", 2 * window, 100, 0, 1, false},
		{"(still calm)", 2 * window, 100, 0, 1, false},
		// Wake-up latency on a box with idle CPUs is not oversubscription:
		// 12 wake-ups of 0.5 ms and 2 000 hand-overs are 7 % of a window.
		{"parking and waking stays under", window, 2_000, 12, 0, false},
		{"(twice)", window, 2_000, 12, 0, false},
	}
	m := New(Options{})
	var handovers, wakeups, slices uint64
	now := time.Unix(1, 0)
	for _, st := range steps {
		handovers, wakeups, slices = handovers+st.handovers, wakeups+st.wakeups, slices+st.slices
		now = now.Add(st.wall)
		m.closeWindow(now, synthHist(handovers, wakeups, slices))
		if m.over != st.want {
			t.Fatalf("%s: verdict %v, want %v", st.name, m.over, st.want)
		}
	}
}

// TestWindowEdge: sample reads the histogram at window edges only, and the
// verdict stands in between.
func TestWindowEdge(t *testing.T) {
	m := New(Options{})
	t0 := time.Now()
	m.sample(t0) // the first sample opens the first window
	if !m.windowStart.Equal(t0) {
		t.Fatalf("first sample did not open a window: start %v, want %v", m.windowStart, t0)
	}
	m.over = true // a verdict that only an edge may change
	if !m.sample(t0.Add(window - time.Nanosecond)) {
		t.Fatal("verdict changed inside the window")
	}
	if !m.windowStart.Equal(t0) {
		t.Fatal("window closed before its time")
	}
	m.sample(t0.Add(window))
	if !m.windowStart.Equal(t0.Add(window)) {
		t.Fatalf("window did not close at its edge: start %v", m.windowStart)
	}
	// With the probe off no window ever opens.
	off := New(Options{DisableProbes: true})
	off.sample(t0)
	if !off.windowStart.IsZero() {
		t.Fatal("DisableProbes still read the histogram")
	}
}

func TestMonitorStopFreezesFlag(t *testing.T) {
	m := New(Options{Interval: time.Millisecond, DisableProbes: true})
	m.Start()
	m.SetHint(1 << 20)
	deadline := time.After(10 * time.Second)
	for !m.Multiprogrammed() {
		select {
		case <-deadline:
			t.Fatal("flag never set")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	m.Stop()
	m.SetHint(0)
	time.Sleep(10 * time.Millisecond)
	if !m.Multiprogrammed() {
		t.Fatal("flag changed after Stop")
	}
}
