package telemetry

import (
	"testing"

	"gls/internal/stripe"
)

// TestAbortCountsExactlyOnce pins the lane discipline for bounded
// acquisitions end to end: an abort is one Failed (the existing failed
// lane) plus one cause counter — never two failed counts, never a cause
// without a fail — and the invariant TryFails >= Timeouts + Cancels holds
// through live snapshots, diffs, the retired fold, and the diff's
// retired-correction pass.
func TestAbortCountsExactlyOnce(t *testing.T) {
	r := New(Options{SamplePeriod: 1})
	st := r.Register(5, "glk")
	tok := stripe.Self()

	abort := func(timeout bool) {
		a := st.Arrive(tok)
		a.Aborted(timeout)
	}
	abort(true)
	abort(true)
	abort(false)
	// One plain TryLock failure: the failed lane must exceed the causes by
	// exactly this one.
	st.Arrive(tok).Failed()
	// One grant, so acquisitions stay derivable.
	a := st.Arrive(tok)
	a.Acquired(false)
	st.Release(tok)

	snap1 := r.Snapshot()
	l := snap1.Lock(5)
	if l == nil {
		t.Fatal("lock missing from snapshot")
	}
	if l.Timeouts != 2 || l.Cancels != 1 {
		t.Fatalf("timeouts/cancels = %d/%d, want 2/1", l.Timeouts, l.Cancels)
	}
	if l.TryFails != 4 {
		t.Fatalf("TryFails = %d, want 4 (3 aborts + 1 plain try failure, each once)", l.TryFails)
	}
	if l.Arrivals != 5 || l.Acquisitions != 1 {
		t.Fatalf("arrivals/acquisitions = %d/%d, want 5/1", l.Arrivals, l.Acquisitions)
	}

	// Interval accounting: one more timeout, then diff against snap1.
	abort(true)
	snap2 := r.Snapshot()
	d := snap2.Diff(snap1)
	dl := d.Lock(5)
	if dl.Timeouts != 1 || dl.Cancels != 0 || dl.TryFails != 1 {
		t.Fatalf("diff timeouts/cancels/tryfails = %d/%d/%d, want 1/0/1",
			dl.Timeouts, dl.Cancels, dl.TryFails)
	}

	// The retired fold carries the cause lanes with the fails.
	r.Unregister(5)
	snap3 := r.Snapshot()
	if snap3.Retired.Timeouts != 3 || snap3.Retired.Cancels != 1 {
		t.Fatalf("retired timeouts/cancels = %d/%d, want 3/1",
			snap3.Retired.Timeouts, snap3.Retired.Cancels)
	}
	if snap3.Retired.TryFails < snap3.Retired.Timeouts+snap3.Retired.Cancels {
		t.Fatalf("retired TryFails %d < timeouts+cancels %d",
			snap3.Retired.TryFails, snap3.Retired.Timeouts+snap3.Retired.Cancels)
	}

	// Diffing across the retirement must subtract what snap1 already
	// reported live, leaving only the interval's one timeout.
	d2 := snap3.Diff(snap1)
	if d2.Retired.Timeouts != 1 || d2.Retired.Cancels != 0 {
		t.Fatalf("diffed retired timeouts/cancels = %d/%d, want 1/0 (live-reported counts double-counted)",
			d2.Retired.Timeouts, d2.Retired.Cancels)
	}
}
