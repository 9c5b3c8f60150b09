package glk

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gls/internal/sysmon"
	"gls/telemetry"
)

// TestRWLockBasic covers the sequential contract.
func TestRWLockBasic(t *testing.T) {
	l := NewRW(nil)
	for i := 0; i < 100; i++ {
		l.Lock()
		l.Unlock()
		l.RLock()
		l.RUnlock()
	}
	l.RLock()
	l.RLock()
	l.RUnlock()
	l.RUnlock()
	if got := l.Readers(); got != 0 {
		t.Fatalf("Readers after drain = %d, want 0", got)
	}
}

// TestRWLockValidate pins the config errors.
func TestRWLockValidate(t *testing.T) {
	if err := (RWConfig{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	if err := (RWConfig{SamplePeriod: 1 << 40}).Validate(); err == nil {
		t.Fatal("oversized SamplePeriod accepted")
	}
}

// TestRWLockWriterExclusion mirrors the locks-package conformance check:
// readers never observe a writer's half-done update, and no writer update
// is lost. glk.RWLock cannot join the suite in package locks (import
// direction), so the contract is re-pinned here.
func TestRWLockWriterExclusion(t *testing.T) {
	const writers, readers, iters = 4, 4, 1500
	l := NewRW(nil)
	var x, y int
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				x++
				runtime.Gosched()
				y++
				l.Unlock()
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.RLock()
				if x != y {
					t.Errorf("reader observed torn state x=%d y=%d", x, y)
					l.RUnlock()
					return
				}
				l.RUnlock()
			}
		}()
	}
	wg.Wait()
	if x != writers*iters || y != writers*iters {
		t.Fatalf("x=%d y=%d, want both %d", x, y, writers*iters)
	}
}

// TestRWLockReaderParallelism: two read shares genuinely coexist.
func TestRWLockReaderParallelism(t *testing.T) {
	l := NewRW(nil)
	firstIn := make(chan struct{})
	secondIn := make(chan struct{})
	done := make(chan struct{})
	go func() {
		l.RLock()
		close(firstIn)
		<-secondIn
		l.RUnlock()
		close(done)
	}()
	<-firstIn
	go func() {
		l.RLock()
		close(secondIn)
		l.RUnlock()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("second reader never entered while the first held its share")
	}
}

// TestRWLockTryUnderWriter: try variants fail under a writer and while
// readers hold.
func TestRWLockTryUnderWriter(t *testing.T) {
	l := NewRW(nil)
	l.Lock()
	tried := make(chan [2]bool)
	go func() { tried <- [2]bool{l.TryRLock(), l.TryLock()} }()
	if got := <-tried; got[0] || got[1] {
		t.Fatalf("TryRLock/TryLock under writer = %v/%v, want false/false", got[0], got[1])
	}
	l.Unlock()
	if !l.TryRLock() {
		t.Fatal("TryRLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock succeeded while a read share is out")
	}
	l.RUnlock()
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	l.Unlock()
}

// noTransitions fails t unless l is in rwstriped with no mode change
// counted and, if key is registered in reg, no transition edge recorded:
// the reader counter's shape is footprint housekeeping, not a mode.
func noTransitions(t *testing.T, l *RWLock, reg *telemetry.Registry, key uint64) {
	t.Helper()
	if l.RWMode() != RWModeStriped || l.Stats().Transitions != 0 {
		t.Fatalf("mode %v after %d transitions, want rwstriped after none", l.RWMode(), l.Stats().Transitions)
	}
	if reg == nil {
		return
	}
	snap := reg.Snapshot().Lock(key)
	if snap == nil || !snap.IsRW {
		t.Fatalf("telemetry snapshot missing rw lock: %+v", snap)
	}
	if len(snap.Transitions) != 0 || snap.Mode != "rwstriped" {
		t.Fatalf("telemetry mode %q with edges %+v, want rwstriped and none", snap.Mode, snap.Transitions)
	}
}

// TestRWLockInflatesOnReaderConcurrency pins the inflation trigger: a
// second simultaneous reader stripes the counter, and the mode word, the
// transition counter and telemetry do not move.
func TestRWLockInflatesOnReaderConcurrency(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	st := reg.Register(1, "glkrw")
	l := NewRW(&RWConfig{Stats: st})
	if l.ReadersInflated() {
		t.Fatal("fresh lock already inflated")
	}
	noTransitions(t, l, reg, 1)
	for i := 0; i < 1000; i++ {
		l.RLock()
		l.RUnlock()
	}
	if l.ReadersInflated() {
		t.Fatal("solitary reads inflated the lock")
	}
	l.RLock()
	l.RLock() // second simultaneous share: the trigger
	if !l.ReadersInflated() {
		t.Fatal("concurrent read shares did not inflate")
	}
	l.RUnlock()
	l.RUnlock()
	noTransitions(t, l, reg, 1)
}

// TestRWLockWriterInflates: a writer whose drain meets readers inflates
// too (holder-side observation), even if no two readers ever overlapped.
func TestRWLockWriterInflates(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	l := NewRW(&RWConfig{Stats: reg.Register(8, "glkrw")})
	l.RLock() // one solitary reader: no reader-side trigger
	done := make(chan struct{})
	go func() {
		l.Lock() // drains — and meets — the reader
		l.Unlock()
		close(done)
	}()
	for !l.WriteLocked() {
		runtime.Gosched() // writer has raised the flag and entered its drain
	}
	// Give the drain time to observe the reader before releasing it; the
	// writer cannot finish Lock() until the RUnlock below, so the only
	// thing the sleep risks is the test passing for the right reason.
	time.Sleep(20 * time.Millisecond)
	l.RUnlock()
	<-done
	if !l.ReadersInflated() {
		t.Fatal("writer drain that met a reader did not inflate")
	}
	noTransitions(t, l, reg, 8)
}

// readWrite runs n goroutines on l until stop returns true, and waits for
// them: one operation in every is a Lock/Unlock, the rest RLock/RUnlock.
func readWrite(l *RWLock, n, every int, stop func() bool) {
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !stop() {
				for n := 0; n < 100; n, i = n+1, i+1 {
					if i%every == 0 {
						l.Lock()
						l.Unlock()
					} else {
						l.RLock()
						l.RUnlock()
					}
				}
			}
		}(g * 5)
	}
	wg.Wait()
}

// TestRWLockSettles: a write-mixed key under the real shared monitor finds
// its mode and stays there. Two goroutines, 90 % RLock / 10 % Lock, default
// configuration: nine reads per write is below rwMixToPhaseFair, so the key
// belongs in phase-fair admission, reached in one transition (striping the
// reader counter on the way is none), after which 300 ms more of the same
// traffic move it no further. Neither a multiprogramming verdict on a box that
// merely has every P busy, nor drain luck, nor a reader the scheduler kept
// off the processor may move it again. (CI's whole-tree -race run, where
// other packages' tests share the CPUs, leaves it out; it runs alone in the
// -count=2 lane.)
func TestRWLockSettles(t *testing.T) {
	if testing.Short() || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("runs two CPU-bound goroutines for 300 ms; on one P they are the oversubscription")
	}
	// A fresh shared monitor: an earlier test's oversubscription (eight
	// goroutines on the default lock) leaves a sticky verdict behind.
	sysmon.StopShared()
	defer sysmon.StopShared()
	l := NewRW(nil)
	var flagged atomic.Bool
	run := func(d time.Duration, done func() bool) {
		deadline := time.Now().Add(d)
		readWrite(l, 2, 10, func() bool {
			if sysmon.Shared().Multiprogrammed() {
				flagged.Store(true)
			}
			return done() || time.Now().After(deadline)
		})
	}
	run(10*time.Second, func() bool { return l.RWMode() == RWModePhaseFair })
	settled := l.Stats().Transitions
	run(300*time.Millisecond, func() bool { return false })
	got, n := l.RWMode(), l.Stats().Transitions
	if flagged.Load() {
		t.Fatalf("multiprogramming verdict on two goroutines and %d Ps (ended in %v after %d transitions)",
			runtime.GOMAXPROCS(0), got, n)
	}
	if got != RWModePhaseFair || settled != 1 || n != settled {
		t.Fatalf("ended in %v after %d transitions (%d to settle), want rwphasefair after one and none after",
			got, n, settled)
	}
}

// TestRWLockBlocksWhenOversubscribed is the other half of TestRWLockSettles:
// with four goroutines per P on the key the shared monitor's estimate is
// real, and the lock reaches the blocking mode on it.
func TestRWLockBlocksWhenOversubscribed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 4 × GOMAXPROCS CPU-bound goroutines")
	}
	defer sysmon.StopShared()
	l := NewRW(nil)
	deadline := time.Now().Add(5 * time.Second)
	readWrite(l, 4*runtime.GOMAXPROCS(0), 10, func() bool {
		return l.RWMode() == RWModeWritePref || time.Now().After(deadline)
	})
	if got := l.RWMode(); got != RWModeWritePref {
		t.Fatalf("mode %v after 5 s of %d goroutines on %d Ps, want rwwritepref",
			got, 4*runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0))
	}
}

// TestRWLockNoLostWakeups is the -race soak for the adaptive lock, with
// every write a sampling boundary so the mode decisions run mid-storm.
func TestRWLockNoLostWakeups(t *testing.T) {
	const writers, readers, iters = 3, 5, 600
	reg := telemetry.New(telemetry.Options{SamplePeriod: 4})
	l := NewRW(&RWConfig{SamplePeriod: 1, Stats: reg.Register(3, "glkrw")})
	var shared int64
	var inWrite atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				if inWrite.Add(1) != 1 {
					t.Error("two writers inside")
				}
				shared++
				inWrite.Add(-1)
				l.Unlock()
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.RLock()
				if inWrite.Load() != 0 {
					t.Error("reader inside while a writer is inside")
				}
				_ = shared
				l.RUnlock()
			}
		}()
	}
	wg.Wait()
	if shared != writers*iters {
		t.Fatalf("shared = %d, want %d", shared, writers*iters)
	}
	if got := l.Readers(); got != 0 {
		t.Fatalf("Readers after storm = %d (inflate/deflate lost a delta)", got)
	}
}
