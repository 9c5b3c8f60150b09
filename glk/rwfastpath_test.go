package glk

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gls/telemetry"
)

// The tests below cover every exit of the static phase-fair arm of a lock
// without telemetry, in RWLock's RLock, Lock and Unlock: each acquisition
// the arm does not keep must dispatch again exactly as through rwDelegate,
// and the phase-fair write clock must keep the write count and the sampling
// periods exact.

// phaseFairRW returns a lock without telemetry moved to rwphasefair before
// anyone has held it, and its delegate.
func phaseFairRW(cfg RWConfig) (*RWLock, *phaseFairView) {
	cfg.Monitor = newTestMonitor()
	l := NewRW(&cfg)
	l.transitionTo(RWModePhaseFair, "test")
	return l, &phaseFairView{l}
}

// phaseFairView reads the delegate's words for the assertions.
type phaseFairView struct{ l *RWLock }

func (v *phaseFairView) readers() int  { return v.l.subs.Load().pf.Readers() }
func (v *phaseFairView) queue() int    { return v.l.subs.Load().pf.QueueLen() }
func (v *phaseFairView) phases() int   { return int(v.l.subs.Load().pf.Phases()) }
func (v *phaseFairView) writing() bool { return v.l.subs.Load().pf.WriteLocked() }

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRWFastPathReaderReturnsShare: a reader takes the phase-fair arm while
// a writer phase is up, so its arrival waits inside the delegate; the
// holder moves the mode to rwstriped and releases. The reader is admitted
// under a family the mode word no longer names: it must return that share
// and hold a native one instead, so a writer is kept out by the family that
// now counts.
func TestRWFastPathReaderReturnsShare(t *testing.T) {
	l, pf := phaseFairRW(RWConfig{})
	l.Lock()
	holding, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		l.RLock()
		close(holding)
		<-release
		l.RUnlock()
		close(done)
	}()
	waitFor(t, "the reader's phase-fair arrival", func() bool { return pf.readers() == 1 })
	// As the holder: move the mode, then release the family the write was
	// acquired under, as Unlock does after a transition.
	l.transitionTo(RWModeStriped, "test")
	l.subs.Load().pf.Unlock()
	<-holding
	if n := pf.readers(); n != 0 {
		t.Fatalf("the delegate still counts %d readers: the stale share was not returned", n)
	}
	if n := rwPresent(l.readers.Sum()); n != 1 {
		t.Fatalf("native readers present = %d, want the reader's share", n)
	}
	if l.TryLock() {
		t.Fatal("a writer got in beside the reader's native share")
	}
	close(release)
	<-done
	l.Lock()
	l.Unlock()
	if m := l.RWMode(); m != RWModeStriped || pf.phases() != 1 || pf.writing() {
		t.Fatalf("mode %v, delegate phases %d, write-locked %v: want rwstriped, 1, false", m, pf.phases(), pf.writing())
	}
}

// TestRWFastPathWriterCompletesPhase: a writer in the phase-fair arm meets a
// held delegate and waits on the delegate's ticket; the holder moves the
// mode to rwstriped and releases. The waiter's ticket must complete its
// announced phase, leaving the delegate free and clean, before the writer
// takes the native lock. The same exit follows an arm whose mode word moved
// between its first read and a ticket that did not wait: that window is
// instructions wide, and TestRWFastPathStormWritesExact is where it opens.
func TestRWFastPathWriterCompletesPhase(t *testing.T) {
	l, pf := phaseFairRW(RWConfig{})
	l.Lock()
	holding, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		l.Lock()
		close(holding)
		<-release
		l.Unlock()
		close(done)
	}()
	waitFor(t, "the writer's delegate ticket", func() bool { return pf.queue() == 2 })
	l.transitionTo(RWModeStriped, "test")
	l.subs.Load().pf.Unlock()
	<-holding
	if pf.queue() != 0 || pf.writing() || pf.phases() != 2 {
		t.Fatalf("delegate queue %d, write-locked %v, phases %d: want 0, false, 2 (the waiter's phase completed)",
			pf.queue(), pf.writing(), pf.phases())
	}
	if l.writer.Load() != 1 || l.wmu.QueueLen() != 1 {
		t.Fatalf("native writer flag %d, ticket queue %d: the writer does not hold the native lock",
			l.writer.Load(), l.wmu.QueueLen())
	}
	if l.TryRLock() {
		t.Fatal("a reader got in beside the native writer")
	}
	close(release)
	<-done
	l.RLock()
	l.RUnlock()
	if got := l.Stats().Writes; got != 1 {
		t.Fatalf("Writes = %d, want 1 (the holder's write was the test's own)", got)
	}
}

// TestRWFastPathInstrumentedKeepsLanes: a lock with telemetry in
// rwphasefair goes through rwDelegate, not the static arm, on every
// operation, so both lanes stay exact: every read
// and write arrival is counted once and ends in exactly one acquisition or
// failure, and the write count is exact at rest.
func TestRWFastPathInstrumentedKeepsLanes(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	l := NewRW(&RWConfig{Monitor: newTestMonitor(), FairPeriods: 255, Stats: reg.Register(1, "glkrw")})
	starveOnce(t, l) // one write, under rwstriped
	const n = 200    // over three default sampling periods
	for i := 0; i < n; i++ {
		l.RLock()
		if i%10 == 0 && l.TryLock() {
			t.Fatal("TryLock beside a read share succeeded")
		}
		l.RUnlock()
		if i%2 == 0 {
			l.Lock()
		} else if !l.TryLock() {
			t.Fatal("TryLock on a free lock failed")
		}
		if i%10 == 0 && l.TryRLock() {
			t.Fatal("TryRLock beside a writer succeeded")
		}
		l.Unlock()
	}
	if m := l.RWMode(); m != RWModePhaseFair {
		t.Fatalf("mode %v, want rwphasefair throughout", m)
	}
	s := reg.Snapshot().Lock(1)
	const fails = n / 10
	if s.RArrivals != n+fails || s.RAcquisitions != n || s.RTryFails != fails {
		t.Fatalf("read arrivals %d, acquisitions %d, try failures %d; want %d, %d, %d",
			s.RArrivals, s.RAcquisitions, s.RTryFails, n+fails, n, fails)
	}
	if s.Arrivals != n+fails+1 || s.Acquisitions != n+1 || s.TryFails != fails {
		t.Fatalf("write arrivals %d, acquisitions %d, try failures %d; want %d, %d, %d",
			s.Arrivals, s.Acquisitions, s.TryFails, n+fails+1, n+1, fails)
	}
	if s.Present != 0 {
		t.Fatalf("present = %d at rest", s.Present)
	}
	if got := l.Stats().Writes; got != n+1 {
		t.Fatalf("Writes = %d, want %d", got, n+1)
	}
}

// TestRWFastPathWritesExactAcrossEras walks one lock rwstriped →
// rwphasefair → rwstriped twice and checks the write count at rest after
// each stretch, mid-period included. Just after the second phase-fair era
// begins, three delegate phases complete with no write section in them —
// what writers that read the mode word in the first era do when they back
// out late — and the era's calm periods must still close after exactly
// SamplePeriod writes of the era each.
func TestRWFastPathWritesExactAcrossEras(t *testing.T) {
	const period, dwell = 4, 2
	l := NewRW(&RWConfig{Monitor: newTestMonitor(), SamplePeriod: period, FairPeriods: dwell})
	want := uint64(0)
	writes := func(n int, stay RWMode) {
		t.Helper()
		for i := 0; i < n; i++ {
			if m := l.RWMode(); m != stay {
				t.Fatalf("write %d of %d: mode %v, want %v", i+1, n, m, stay)
			}
			l.Lock()
			l.Unlock()
			want++
		}
		if got := l.Stats().Writes; got != want {
			t.Fatalf("Writes = %d at rest, want %d", got, want)
		}
	}
	writes(5, RWModeStriped)
	starveOnce(t, l)
	want++
	writes(period*dwell, RWModePhaseFair)
	if m := l.RWMode(); m != RWModeStriped {
		t.Fatalf("mode %v after %d calm phase-fair writes, want rwstriped", m, period*dwell)
	}
	writes(3, RWModeStriped)
	starveOnce(t, l)
	want++
	pf := l.subs.Load().pf
	for i := 0; i < 3; i++ { // stale writers complete their phases after the transition
		pf.Lock()
		pf.Unlock()
	}
	writes(period*dwell-3, RWModePhaseFair) // mid-period at rest
	writes(3, RWModePhaseFair)
	if m := l.RWMode(); m != RWModeStriped {
		t.Fatalf("mode %v after %d calm phase-fair writes, want rwstriped", m, period*dwell)
	}
	writes(2, RWModeStriped)
}

// TestRWFastPathSamplesEveryPeriod: in rwphasefair the write-mix and calm
// decisions still fall every SamplePeriod writes and read the period's
// reads off the delegate. A key with reader stripes read 8 times per write
// (below rwMixToNative) stays phase-fair period after period; at 40 reads
// per write the calm rule returns it after exactly FairPeriods periods.
func TestRWFastPathSamplesEveryPeriod(t *testing.T) {
	const period, dwell = 4, 3
	l := NewRW(&RWConfig{Monitor: newTestMonitor(), SamplePeriod: period, FairPeriods: dwell})
	l.readers.Inflate()
	starveOnce(t, l)
	round := func(reads int) {
		for i := 0; i < reads; i++ {
			l.RLock()
			l.RUnlock()
		}
		l.Lock()
		l.Unlock()
	}
	for i := 0; i < 5*period*dwell; i++ {
		round(8)
		if m := l.RWMode(); m != RWModePhaseFair {
			t.Fatalf("write-mixed key left rwphasefair for %v after %d writes", m, i+1)
		}
	}
	for i := 1; i <= period*dwell; i++ {
		round(40)
		if m, back := l.RWMode(), i == period*dwell; (m == RWModeStriped) != back {
			t.Fatalf("after %d read-mostly writes: mode %v; want rwstriped exactly after %d", i, m, period*dwell)
		}
	}
	if got, want := l.Stats().Writes, uint64(1+5*period*dwell+period*dwell); got != want {
		t.Fatalf("Writes = %d, want %d", got, want)
	}
}

// TestRWFastPathStarveDoesNotSurvive: a starvation signal raised during a
// phase-fair era (a reader of the striped era before it, late) is dropped
// when the lock leaves the era: the first write of the next rwstriped era
// must not send it straight back.
func TestRWFastPathStarveDoesNotSurvive(t *testing.T) {
	l := NewRW(&RWConfig{Monitor: newTestMonitor(), SamplePeriod: 2, FairPeriods: 1})
	starveOnce(t, l)
	l.starve.Store(1)
	for i := 0; i < 2; i++ {
		l.Lock()
		l.Unlock()
	}
	if m := l.RWMode(); m != RWModeStriped {
		t.Fatalf("mode %v after a calm period, want rwstriped", m)
	}
	l.Lock()
	l.Unlock()
	if m := l.RWMode(); m != RWModeStriped {
		t.Fatalf("an old starvation signal sent the lock back to %v", m)
	}
}

// stormFloor is the fewest writes TestRWFastPathStormWritesExact's window
// may hold. The storm convoys: a writer yields inside the lock while the
// others spin, and a write then takes milliseconds where it took a
// microsecond. Measured on 2 vCPUs (go1.24.0), with and without -race, 22
// windows of the lock before the static phase-fair arm held 217–1 870
// writes and 22 of this code 405–1 975, so a window below the floor has
// collapsed, not convoyed.
const stormFloor = 32

// TestRWFastPathStormWritesExact is the no-telemetry soak: writers and a
// reader hammer the lock while a starvation signal raised every few hundred
// microseconds sends it to rwphasefair and calm periods bring it back, so
// writers race each era's end on the phase-fair arm and the native one.
// How often a period is calm depends on the reader's pace, so only the
// first transition is asserted; the test logs the count. Exclusion must
// hold, the delegate must be clean at rest, Stats().Writes must equal the
// writes made, and the window must hold at least stormFloor of them.
// Delegate phases beyond the phase-fair writes are the back-outs the storm
// produced; the test logs them. The writers stop when the window of a
// second and a half closes, not after a count: a storm that finished its
// writes before the first signal would leave nothing to assert.
func TestRWFastPathStormWritesExact(t *testing.T) {
	const writers = 2
	l := NewRW(&RWConfig{Monitor: newTestMonitor(), SamplePeriod: 2, FairPeriods: 1})
	var x, y int                     // guarded by l
	var made, pfWrites atomic.Uint64 // writes made, and those acquired under rwphasefair
	deadline := time.Now().Add(1500 * time.Millisecond)
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // the starvation signal, again and again
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
				l.starve.Store(1)
			}
		}
	}()
	go func() { // a reader checking for torn state
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			l.RLock()
			if x != y {
				t.Errorf("reader observed torn state x=%d y=%d", x, y)
			}
			l.RUnlock()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				l.Lock()
				x++
				if i%16 == 0 {
					runtime.Gosched()
				}
				y++
				made.Add(1)
				if l.RWMode() == RWModePhaseFair {
					pfWrites.Add(1)
				}
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	n := made.Load()
	if uint64(x) != n || uint64(y) != n {
		t.Fatalf("x=%d y=%d, want both %d (lost writer updates)", x, y, n)
	}
	st := l.Stats()
	if st.Writes != n {
		t.Fatalf("Writes = %d at rest, want %d", st.Writes, n)
	}
	if st.Transitions == 0 {
		t.Fatal("the storm never left rwstriped")
	}
	if n < stormFloor {
		t.Fatalf("%d writes in the window, fewer than %d: the storm collapsed", n, stormFloor)
	}
	pf := l.subs.Load().pf
	if pf.QueueLen() != 0 || pf.WriteLocked() || pf.Readers() != 0 || l.Readers() != 0 || l.writer.Load() != 0 {
		t.Fatalf("not clean at rest: delegate queue %d, write-locked %v, readers %d; lock readers %d, native flag %d",
			pf.QueueLen(), pf.WriteLocked(), pf.Readers(), l.Readers(), l.writer.Load())
	}
	t.Logf("%d writes, %d transitions, %d phase-fair writes, %d back-out phases", n, st.Transitions,
		pfWrites.Load(), pf.Phases()-pfWrites.Load())
}
