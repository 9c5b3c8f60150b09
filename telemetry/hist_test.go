package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"gls/internal/stripe"
)

func TestBucketScheme(t *testing.T) {
	cases := []struct {
		ns     uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{1 << 45, histBuckets - 1}, // clamp
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.bucket)
		}
	}
	// A bucket's representative value lies inside the bucket's range.
	for i := 2; i < histBuckets; i++ {
		v := uint64(bucketValue(i))
		lo, hi := uint64(1)<<(i-1), uint64(1)<<i
		if v < lo || v >= hi {
			t.Errorf("bucketValue(%d) = %d outside [%d, %d)", i, v, lo, hi)
		}
	}
}

func TestHistPercentile(t *testing.T) {
	var h latHist
	// 90 samples around 1µs (bucket 10: [512, 1024)ns), 10 around 1ms.
	for i := 0; i < 90; i++ {
		h.record(uint64(i), 700*time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.record(uint64(i), 800*time.Microsecond)
	}
	buckets := h.sum()
	if p50 := histPercentile(buckets, 50); p50 != bucketValue(10) {
		t.Errorf("p50 = %v, want %v", p50, bucketValue(10))
	}
	if p99 := histPercentile(buckets, 99); p99 != bucketValue(20) {
		t.Errorf("p99 = %v, want %v (bucket 20 holds 800µs)", p99, bucketValue(20))
	}
	if histPercentile(nil, 50) != 0 {
		t.Error("empty histogram should report 0")
	}
}

// TestHistogramLaneRoundTrip drives the histogram lane through every read
// surface the satellite names: snapshot, diff, retired fold, JSON, text.
func TestHistogramLaneRoundTrip(t *testing.T) {
	reg := New(Options{SamplePeriod: 1})
	st := reg.Register(0xb1, "glk")
	tok := stripe.Self()

	drive := func(n int) {
		for i := 0; i < n; i++ {
			a := st.Arrive(tok)
			a.Acquired(true)
			st.Release(tok)
		}
	}
	drive(10)

	// Snapshot: every timed acquisition landed one wait and one hold sample.
	s1 := reg.Snapshot()
	l := s1.Lock(0xb1)
	if l == nil || sumb(l.WaitHist) != 10 || sumb(l.HoldHist) != 10 {
		t.Fatalf("snapshot histograms: %+v", l)
	}
	if l.WaitPercentile(50) == 0 || histPercentile(l.HoldHist, 99) == 0 {
		t.Fatalf("percentiles empty: %+v", l)
	}

	// JSON round trip preserves the buckets.
	var buf bytes.Buffer
	if err := s1.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if bl := back.Lock(0xb1); bl == nil || sumb(bl.WaitHist) != 10 {
		t.Fatalf("JSON round trip lost histograms: %+v", bl)
	}

	// Diff: only the interval's samples remain.
	drive(5)
	s2 := reg.Snapshot()
	d := s2.Diff(s1)
	if dl := d.Lock(0xb1); dl == nil || sumb(dl.WaitHist) != 5 || sumb(dl.HoldHist) != 5 {
		t.Fatalf("diff histograms: %+v", d.Lock(0xb1))
	}

	// Retired fold: Unregister moves the buckets into the retired totals.
	reg.Unregister(0xb1)
	s3 := reg.Snapshot()
	if sumb(s3.Retired.WaitHist) != 15 || sumb(s3.Retired.HoldHist) != 15 {
		t.Fatalf("retired histograms: %+v", s3.Retired)
	}

	// Text report: percentiles ride the trailing column.
	var txt bytes.Buffer
	if err := s2.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "wait-p50/95/99") || !strings.Contains(txt.String(), "hold-p50/95/99") {
		t.Fatalf("text report missing percentiles:\n%s", txt.String())
	}
}

// TestHistogramRWLane: reader wait samples land in RWaitHist and render on
// the read-side line.
func TestHistogramRWLane(t *testing.T) {
	reg := New(Options{SamplePeriod: 1})
	st := reg.Register(0xb2, "glkrw")
	st.EnableRW()
	tok := stripe.Self()
	for i := 0; i < 8; i++ {
		a := st.RArrive(tok)
		a.RAcquired(true)
		st.RRelease(tok)
	}
	snap := reg.Snapshot()
	l := snap.Lock(0xb2)
	if sumb(l.RWaitHist) != 8 || histPercentile(l.RWaitHist, 95) == 0 {
		t.Fatalf("rw histogram: %+v", l)
	}
	var txt bytes.Buffer
	if err := snap.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "r-wait-p50/95/99") {
		t.Fatalf("read-side percentiles missing:\n%s", txt.String())
	}
}

// TestHistogramLazyAllocation: a lock that never samples never allocates
// the block — the 8-byte discipline the rw block established.
func TestHistogramLazyAllocation(t *testing.T) {
	reg := New(Options{SamplePeriod: 64})
	st := reg.Register(0xb3, "glk")
	tok := stripe.Self()
	// An untimed arrival: the lane counter reads 1 after the add, and
	// 1 & 63 != 0, so sampling skips it — as it does counts 1..63.
	a := st.Arrive(tok)
	a.Acquired(false)
	st.Release(tok)
	if st.hist.Load() != nil {
		t.Fatal("histogram block allocated without a timed sample")
	}
}

func sumb(b []uint64) (n uint64) {
	for _, v := range b {
		n += v
	}
	return
}
