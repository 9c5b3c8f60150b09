package gls

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gls/glk"
)

// TestFreeWhileOthersLockSameKeySpace: Free on one key must never disturb
// locking on other keys, even under churn.
func TestFreeWhileOthersLockSameKeySpace(t *testing.T) {
	s := newTestService(t, Options{})
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	// Churner: creates and frees a disjoint key range.
	go func() {
		defer churn.Done()
		k := uint64(10_000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Lock(k)
			s.Unlock(k)
			s.Free(k)
			k++
			if k == 20_000 {
				k = 10_000
			}
			runtime.Gosched()
		}
	}()
	// Workers on a stable key.
	counter := 0
	var workers sync.WaitGroup
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 3000; i++ {
				s.Lock(7)
				counter++
				s.Unlock(7)
			}
		}()
	}
	workers.Wait()
	close(stop)
	churn.Wait()
	if counter != 12000 {
		t.Fatalf("counter = %d, want 12000", counter)
	}
}

// TestFreeThenReuseGetsFreshLock: after Free, the key maps to a brand-new
// lock object (the old one may still be held by a straggler — the caller
// owns that hazard, as in the paper).
func TestFreeThenReuseGetsFreshLock(t *testing.T) {
	s := newTestService(t, Options{})
	s.Lock(5)
	// Freeing a *held* lock then reusing the key must still allow the new
	// lock to be acquired: the mapping is fresh.
	s.Free(5)
	acquired := make(chan struct{})
	go func() {
		s.Lock(5)
		close(acquired)
		s.Unlock(5)
	}()
	<-acquired
}

// TestHandleFeedsProfiling: since profiling moved into the lock objects
// (telemetry), the handle latency path is profiled too — it used to bypass
// the service-level accumulators (documented behaviour, updated with the
// glstat subsystem).
func TestHandleFeedsProfiling(t *testing.T) {
	s := newTestService(t, Options{Profile: true})
	h := s.NewHandle()
	h.Lock(3)
	h.Unlock(3)
	stats := s.ProfileStats()
	if len(stats) != 1 || stats[0].Key != 3 || stats[0].Acquisitions != 1 {
		t.Fatalf("handle operations missing from profile stats: %+v", stats)
	}
	// Mixing handle and service calls accumulates into the same entry.
	s.Lock(3)
	s.Unlock(3)
	stats = s.ProfileStats()
	if len(stats) != 1 || stats[0].Acquisitions != 2 {
		t.Fatalf("profile entries after mixed use: %+v", stats)
	}
}

// TestGLKTryLockTriggersAdaptation: adaptation statistics accumulate
// through the TryLock path too.
func TestGLKTryLockTriggersAdaptation(t *testing.T) {
	mon := quietMonitor()
	l := glk.New(&glk.Config{Monitor: mon, SamplePeriod: 2, AdaptPeriod: 8})
	for i := 0; i < 100; i++ {
		if l.TryLock() {
			l.Unlock()
		}
	}
	if st := l.Stats(); st.Acquired != 100 || st.QueueTotal == 0 {
		t.Fatalf("TryLock path skipped statistics: %+v", st)
	}
}

// TestServiceLocksCountUnderConcurrentCreation: entry creation is
// exactly-once per key even when many goroutines race on a fresh key space.
func TestServiceLocksCountUnderConcurrentCreation(t *testing.T) {
	s := newTestService(t, Options{})
	const keys = 128
	var wg sync.WaitGroup
	var totalOps atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < keys*4; i++ {
				k := uint64((seed+i)%keys + 1)
				s.Lock(k)
				s.Unlock(k)
				totalOps.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if s.Locks() != keys {
		t.Fatalf("Locks = %d, want %d (duplicate or lost entries)", s.Locks(), keys)
	}
}
