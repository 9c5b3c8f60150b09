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
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
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
	if Unwrap(l) == l {
		t.Fatal("Unwrap did not strip the instrumentation")
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
	if r.Len() != 0 {
		t.Fatalf("Len = %d after Unregister", r.Len())
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

// TestFoldIdleEviction exercises the high-cardinality retention policy:
// idle stats fold into the retired totals (flagged as evicted), active ones
// and freshly registered ones survive.
func TestFoldIdleEviction(t *testing.T) {
	r := New(Options{SamplePeriod: 1, MaxLocks: 100})
	tok := stripe.Self()
	stats := make([]*LockStats, 10)
	for i := range stats {
		stats[i] = r.Register(uint64(i+1), "glk")
		a := stats[i].Arrive(tok)
		a.Acquired(false)
		stats[i].Release(tok)
	}
	// First scan only arms the idle detector (every lock carries the fresh-
	// registration sentinel).
	if n := r.FoldIdle(); n != 0 {
		t.Fatalf("first FoldIdle folded %d locks, want 0 (grace scan)", n)
	}
	// Activity on two locks; everything else stays idle.
	for _, i := range []int{0, 1} {
		a := stats[i].Arrive(tok)
		a.Acquired(false)
		stats[i].Release(tok)
	}
	if n := r.FoldIdle(); n != 8 {
		t.Fatalf("second FoldIdle folded %d locks, want 8", n)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d after fold, want 2", r.Len())
	}
	snap := r.Snapshot()
	if snap.Retired.Locks != 8 || snap.Retired.Evicted != 8 {
		t.Fatalf("Retired: %+v, want 8 locks / 8 evicted", snap.Retired)
	}
	if snap.Retired.Acquisitions != 8 {
		t.Fatalf("Retired.Acquisitions = %d, want 8 (one per evicted lock)", snap.Retired.Acquisitions)
	}
	// A lock with a goroutine present never folds, idle arrivals or not.
	a := stats[0].Arrive(tok)
	a.Acquired(false) // held: presence 1
	r.FoldIdle()      // arm
	if n := r.FoldIdle(); n != 0 {
		t.Fatalf("FoldIdle folded %d, want 0 (one lock held, one just-active)", n)
	}
	stats[0].Release(tok)
}

// TestMaxLocksAutoSweep: crossing the cap triggers the idle fold from
// Register itself, no manual FoldIdle needed.
func TestMaxLocksAutoSweep(t *testing.T) {
	r := New(Options{SamplePeriod: 1, MaxLocks: 4})
	tok := stripe.Self()
	for i := 0; i < 16; i++ {
		st := r.Register(uint64(i+1), "glk")
		a := st.Arrive(tok)
		a.Acquired(false)
		st.Release(tok)
	}
	// Every registration past the cap swept; each lock is idle after its
	// burst, so the registry stays near the cap instead of growing to 16.
	if n := r.Len(); n > 8 {
		t.Fatalf("Len = %d, want <= 8 (cap 4 plus sweep hysteresis)", n)
	}
	snap := r.Snapshot()
	if snap.Retired.Evicted == 0 {
		t.Fatal("auto-sweep evicted nothing")
	}
	if got := snap.Retired.Acquisitions + totalAcquisitions(snap); got != 16 {
		t.Fatalf("live+retired acquisitions = %d, want 16 (eviction lost counts)", got)
	}
}

// touch drives one uncontended acquisition through st.
func touch(st *LockStats) {
	tok := stripe.Self()
	a := st.Arrive(tok)
	a.Acquired(false)
	st.Release(tok)
}

// TestAutoSweepSparesActiveAndTrigger is the rest of the MaxLocks contract,
// under a Register storm well past the cap: a sweep folds the idle, keeps
// and re-arms a lock that moved since the last one however often it runs,
// never folds the registration that triggered it, and moves counts from
// the live side to the retired side without losing or double-counting one
// — so the retired totals only rise.
func TestAutoSweepSparesActiveAndTrigger(t *testing.T) {
	r := New(Options{SamplePeriod: 1, MaxLocks: 8})
	const busyKey, storm = 1, 64
	busy := r.Register(busyKey, "glk")
	touches := uint64(0)
	var prev RetiredSnapshot
	for i := 0; i < storm; i++ {
		key := uint64(100 + i)
		st := r.Register(key, "glk")
		if r.Get(key) != st {
			t.Fatalf("registration %d: the sweep it triggered folded it", i)
		}
		touch(st)
		touch(busy)
		touches += 2
		snap := r.Snapshot()
		if snap.Retired.Locks < prev.Locks || snap.Retired.Evicted < prev.Evicted || snap.Retired.Acquisitions < prev.Acquisitions {
			t.Fatalf("registration %d: retired totals fell: %+v after %+v", i, snap.Retired, prev)
		}
		if got := snap.Retired.Acquisitions + totalAcquisitions(snap); got != touches {
			t.Fatalf("registration %d: live+retired acquisitions = %d, want %d", i, got, touches)
		}
		prev = snap.Retired
	}
	if r.Get(busyKey) != busy {
		t.Error("the lock that was active before every sweep was folded")
	}
	if got := busy.snapshot().Acquisitions; got != storm {
		t.Errorf("the active lock shows %d acquisitions, want %d", got, storm)
	}
	if n := r.Len(); n > 12 {
		t.Errorf("Len = %d after %d idle registrations, want near the cap of 8", n, storm)
	}
	if prev.Evicted == 0 || prev.Evicted != prev.Locks {
		t.Errorf("retired %d locks, %d of them evicted: want every one, and some", prev.Locks, prev.Evicted)
	}

	// The manual scan is the same one: arm, then fold everything idle.
	r.FoldIdle()
	if n, left := r.FoldIdle(), r.Len(); left != 0 || n == 0 {
		t.Errorf("second FoldIdle folded %d and left %d, want everything folded", n, left)
	}
}

func totalAcquisitions(s *Snapshot) uint64 {
	var n uint64
	for i := range s.Locks {
		n += s.Locks[i].Acquisitions
	}
	return n
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

func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default not a singleton")
	}
}
