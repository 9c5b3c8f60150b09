package telemetry

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"gls/internal/pad"
	"gls/internal/stripe"
	"gls/locks"
)

func TestRegistryRegisterIdempotent(t *testing.T) {
	r := New(Options{})
	a := r.Register(1, "glk")
	b := r.Register(1, "mcs")
	if a != b {
		t.Fatal("re-register returned a different LockStats")
	}
	if len(r.Snapshot().Locks) != 1 {
		t.Fatalf("Len = %d, want 1", len(r.Snapshot().Locks))
	}
	if got := r.Get(1); got != a {
		t.Fatal("Get did not return the registered stats")
	}
	if r.Get(2) != nil {
		t.Fatal("Get of unknown key non-nil")
	}
}

func TestSamplePeriodRoundsToPowerOfTwo(t *testing.T) {
	cases := map[uint64]uint64{0: DefaultSamplePeriod, 1: 1, 2: 2, 3: 4, 5: 8, 64: 64, 100: 128}
	for in, want := range cases {
		if got := New(Options{SamplePeriod: in}).SamplePeriod(); got != want {
			t.Errorf("SamplePeriod(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestUncontendedAcquisitionCounts(t *testing.T) {
	r := New(Options{SamplePeriod: 1})
	st := r.Register(7, "glk")
	tok := stripe.Self()
	for i := 0; i < 10; i++ {
		a := st.Arrive(tok)
		a.Acquired(false)
		time.Sleep(100 * time.Microsecond)
		st.Release(tok)
	}
	snap := r.Snapshot()
	l := snap.Lock(7)
	if l == nil {
		t.Fatal("lock 7 missing from snapshot")
	}
	if l.Acquisitions != 10 || l.Arrivals != 10 || l.Contended != 0 || l.TryFails != 0 {
		t.Fatalf("counts: %+v", l)
	}
	if l.Samples != 10 {
		t.Fatalf("Samples = %d, want 10 (period 1)", l.Samples)
	}
	if l.AvgHold() < 50*time.Microsecond {
		t.Fatalf("AvgHold = %v, want >= 50µs", l.AvgHold())
	}
	if q := l.AvgQueue(); q < 0.99 || q > 1.5 {
		t.Fatalf("AvgQueue = %.2f, want ~1 (holder only)", q)
	}
	if l.Present != 0 {
		t.Fatalf("Present = %d, want 0 at rest", l.Present)
	}
}

func TestTryFailUndoesPresence(t *testing.T) {
	r := New(Options{SamplePeriod: 1})
	st := r.Register(1, "glk")
	tok := stripe.Self()
	a := st.Arrive(tok)
	a.Acquired(false)
	f := st.Arrive(tok + 1) // different lane
	f.Failed()
	st.Release(tok)
	l := r.Snapshot().Lock(1)
	if l.Acquisitions != 1 || l.TryFails != 1 || l.Arrivals != 2 {
		t.Fatalf("counts: %+v", l)
	}
	if l.Present != 0 {
		t.Fatalf("Present = %d, want 0", l.Present)
	}
}

func TestInstrumentedLockRecords(t *testing.T) {
	r := New(Options{SamplePeriod: 1})
	st := r.Register(0x42, "mcs")
	l := Instrument(locks.NewMCS(), st)

	// Uncontended pairs.
	for i := 0; i < 5; i++ {
		l.Lock()
		l.Unlock()
	}
	// A contended acquisition: hold, have another goroutine block, release.
	l.Lock()
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(started)
		l.Lock()
		l.Unlock()
		close(done)
	}()
	<-started
	for r.Snapshot().Lock(0x42).Present < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	// A TryLock failure while held.
	if l.TryLock() {
		t.Fatal("TryLock succeeded on held lock")
	}
	l.Unlock()
	<-done

	snap := r.Snapshot().Lock(0x42)
	if snap.Acquisitions != 7 {
		t.Fatalf("Acquisitions = %d, want 7", snap.Acquisitions)
	}
	if snap.Contended < 1 {
		t.Fatalf("Contended = %d, want >= 1", snap.Contended)
	}
	if snap.TryFails != 1 {
		t.Fatalf("TryFails = %d, want 1", snap.TryFails)
	}
	if snap.Kind != "mcs" {
		t.Fatalf("Kind = %q", snap.Kind)
	}
}

func TestInstrumentedLockConcurrent(t *testing.T) {
	r := New(Options{SamplePeriod: 4})
	st := r.Register(9, "ticket")
	l := Instrument(locks.NewTicket(), st)
	const goroutines, per = 4, 500
	var wg sync.WaitGroup
	counter := 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*per {
		t.Fatalf("counter = %d, want %d (mutual exclusion broken)", counter, goroutines*per)
	}
	snap := r.Snapshot().Lock(9)
	if snap.Acquisitions != goroutines*per {
		t.Fatalf("Acquisitions = %d, want %d", snap.Acquisitions, goroutines*per)
	}
	if snap.Present != 0 {
		t.Fatalf("Present = %d, want 0 at rest", snap.Present)
	}
	if snap.Samples == 0 {
		t.Fatal("no timed samples at period 4")
	}
}

func TestTransitionsAggregatePerEdge(t *testing.T) {
	r := New(Options{})
	st := r.Register(3, "glk")
	st.SetMode("ticket")
	st.Transition("ticket", "mcs", "avg queue 4.00 > 3.00")
	st.Transition("mcs", "ticket", "avg queue 1.00 < 2.00")
	st.Transition("ticket", "mcs", "avg queue 5.00 > 3.00")
	l := r.Snapshot().Lock(3)
	if l.Mode != "mcs" {
		t.Fatalf("Mode = %q, want mcs (last transition target)", l.Mode)
	}
	if n := l.TransitionCount(); n != 3 {
		t.Fatalf("TransitionCount = %d, want 3", n)
	}
	for _, tr := range l.Transitions {
		if tr.From == "ticket" && tr.To == "mcs" {
			if tr.Count != 2 || tr.Reason != "avg queue 5.00 > 3.00" {
				t.Fatalf("ticket→mcs edge: %+v", tr)
			}
		}
	}
}

func TestUnregisterFoldsIntoRetired(t *testing.T) {
	r := New(Options{SamplePeriod: 1})
	st := r.Register(5, "glk")
	tok := stripe.Self()
	for i := 0; i < 4; i++ {
		a := st.Arrive(tok)
		a.Acquired(i > 0)
		st.Release(tok)
	}
	st.Transition("ticket", "mcs", "x")
	r.Unregister(5)
	r.Unregister(5) // double-unregister is a no-op
	if len(r.Snapshot().Locks) != 0 {
		t.Fatalf("Len = %d after Unregister", len(r.Snapshot().Locks))
	}
	snap := r.Snapshot()
	if snap.Retired.Locks != 1 || snap.Retired.Acquisitions != 4 || snap.Retired.Contended != 3 || snap.Retired.Transitions != 1 {
		t.Fatalf("Retired: %+v", snap.Retired)
	}
}

// TestSelfCountingLockSkipsPresenceSlot pins the ISSUE-3 acceptance bar:
// a lock that registers a PresenceSampler (GLK) must cause zero slotPresent
// lane adds per operation — presence comes from the sampler in snapshots
// and queue samples alike.
func TestSelfCountingLockSkipsPresenceSlot(t *testing.T) {
	r := New(Options{SamplePeriod: 1})
	st := r.Register(8, "glk")
	var present int64 = 3
	st.SetPresenceSampler(func() int64 { return present })
	tok := stripe.Self()
	for i := 0; i < 4; i++ {
		a := st.Arrive(tok)
		a.Acquired(false)
		st.Release(tok)
	}
	f := st.Arrive(tok)
	f.Failed()
	if got := st.lanes.Sum(slotPresent); got != 0 {
		t.Fatalf("slotPresent lanes = %d, want 0 (duplicate presence adds)", got)
	}
	l := r.Snapshot().Lock(8)
	if l.Present != 3 {
		t.Fatalf("Present = %d, want 3 (from the sampler)", l.Present)
	}
	if q := l.AvgQueue(); q < 2.99 || q > 3.01 {
		t.Fatalf("AvgQueue = %.2f, want 3 (queue samples read the sampler)", q)
	}
	present = -1 // a racy reading below zero must clamp in snapshots
	if got := r.Snapshot().Lock(8).Present; got != 0 {
		t.Fatalf("negative sampler reading surfaced as Present = %d", got)
	}
}

func TestSetLabel(t *testing.T) {
	r := New(Options{})
	r.Register(11, "glk")
	r.SetLabel(11, "journal")
	l := r.Snapshot().Lock(11)
	if l.Label != "journal" || l.Name() != "journal" {
		t.Fatalf("label: %+v", l)
	}
	// Labels may be set before the key's first use: they stick and apply
	// at registration.
	r.SetLabel(999, "early")
	r.Register(999, "glk")
	if got := r.Snapshot().Lock(999); got == nil || got.Label != "early" {
		t.Fatalf("pre-registration label not applied: %+v", got)
	}
}

// TestLockStatsLayout pins the sectioning promised by the LockStats doc:
// lanes, the holder timestamp, and the cold mutex state each start on their
// own cache line, so telemetry writes never share a line with the immutable
// header a snapshot reader walks.
func TestLockStatsLayout(t *testing.T) {
	var s LockStats
	for name, off := range map[string]uintptr{
		"lanes":     unsafe.Offsetof(s.lanes),
		"holdStart": unsafe.Offsetof(s.holdStart),
		"cold":      unsafe.Offsetof(s.cold),
	} {
		if off%pad.CacheLineSize != 0 {
			t.Errorf("%s at offset %d, not %d-byte aligned", name, off, pad.CacheLineSize)
		}
	}
	if unsafe.Offsetof(s.lanes)/pad.CacheLineSize == 0 {
		t.Error("lanes share the header's cache line")
	}
}
