package gls

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestHandleBasic(t *testing.T) {
	s := newTestService(t, Options{})
	h := s.NewHandle()
	h.Lock(1)
	h.Unlock(1)
	if !h.TryLock(1) {
		t.Fatal("TryLock via handle failed")
	}
	h.Unlock(1)
}

func TestHandleCacheHit(t *testing.T) {
	s := newTestService(t, Options{})
	h := s.NewHandle()
	h.Lock(9)
	h.Unlock(9)
	if h.lastKey != 9 || h.last == nil {
		t.Fatal("cache not populated")
	}
	cached := h.last
	h.Lock(9) // must reuse the cached lock
	if h.last != cached {
		t.Fatal("cache miss on repeated key")
	}
	h.Unlock(9)
}

func TestHandleCacheUpdatesOnNewKey(t *testing.T) {
	s := newTestService(t, Options{})
	h := s.NewHandle()
	h.Lock(1)
	h.Unlock(1)
	first := h.last
	h.Lock(2)
	h.Unlock(2)
	if h.lastKey != 2 || h.last == first {
		t.Fatal("cache not updated on new key")
	}
}

func TestHandleSharesLocksWithService(t *testing.T) {
	// A handle and direct service calls must synchronise on the same lock.
	s := newTestService(t, Options{})
	h := s.NewHandle()
	counter := 0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			h.Lock(5)
			counter++
			h.Unlock(5)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			s.Lock(5)
			counter++
			s.Unlock(5)
		}
	}()
	wg.Wait()
	if counter != 6000 {
		t.Fatalf("counter = %d, want 6000 (handle and service used different locks?)", counter)
	}
}

func TestHandlePerGoroutine(t *testing.T) {
	// Distinct handles over the same service still exclude each other.
	s := newTestService(t, Options{})
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := s.NewHandle()
			for i := 0; i < 2000; i++ {
				h.Lock(8)
				counter++
				h.Unlock(8)
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000", counter)
	}
}

func TestHandleStaleAfterFree(t *testing.T) {
	// A handle's cached (key, lock) pair must not survive Service.Free:
	// the key may be remapped to a brand-new lock, and locking the dead
	// object would silently break mutual exclusion with everyone using the
	// new one.
	s := newTestService(t, Options{})
	h := s.NewHandle()
	h.Lock(7)
	h.Unlock(7)
	s.Free(7)
	s.Lock(7) // remaps key 7 to a fresh lock, held by this goroutine
	if h.TryLock(7) {
		t.Fatal("handle acquired a stale lock for a freed-and-remapped key")
	}
	s.Unlock(7)
	h.Lock(7) // now available again, through the new lock
	h.Unlock(7)
}

func TestHandleStaleAfterFreeCrossGoroutine(t *testing.T) {
	// Same hazard, with the free/remap on another goroutine. The goroutines
	// hand off via channels so the key is never freed mid-operation (which
	// would be a caller lifecycle bug); the handle's cache is the only
	// reference that survives the free.
	s := newTestService(t, Options{})
	h := s.NewHandle()
	h.Lock(21)
	h.Unlock(21)

	remapped := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Free(21)
		s.Lock(21) // fresh lock for the remapped key, held
		close(remapped)
		<-release
		s.Unlock(21)
	}()

	<-remapped
	if h.TryLock(21) {
		t.Fatal("handle acquired a stale lock while the remapped key was held elsewhere")
	}
	close(release)
	<-done
	h.Lock(21)
	h.Unlock(21)
}

// mustPanic runs f and reports the recovered panic message, failing the
// test if f returns normally.
func mustPanic(t *testing.T, what string, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

func TestHandleUnlockNeverLockedPanics(t *testing.T) {
	// The miss path of Handle.Unlock must not create an entry: releasing a
	// key that was never locked used to silently conjure a fresh GLK lock
	// and corrupt it with an unpaired Unlock.
	s := newTestService(t, Options{})
	h := s.NewHandle()
	msg := mustPanic(t, "Handle.Unlock of a never-locked key", func() { h.Unlock(0x123) })
	if !strings.Contains(msg, "never locked") {
		t.Fatalf("panic %q does not match Service.Unlock's contract", msg)
	}
	if n := s.Locks(); n != 0 {
		t.Fatalf("Unlock miss created %d entries", n)
	}
}

func TestHandleUnlockAfterFreePanics(t *testing.T) {
	// After a Free, the stale cached pair must not be trusted and the miss
	// must fail like Service.Unlock, not resurrect the key.
	s := newTestService(t, Options{})
	h := s.NewHandle()
	h.Lock(11)
	h.Unlock(11)
	s.Free(11)
	mustPanic(t, "Handle.Unlock of a freed key", func() { h.Unlock(11) })
	if n := s.Locks(); n != 0 {
		t.Fatalf("Unlock of freed key re-created %d entries", n)
	}
}

func TestHandleUnlockMissResolvesExistingLock(t *testing.T) {
	// A cache-missing Unlock of a genuinely mapped key still resolves (and
	// caches) the real lock: lock through the service, release through a
	// fresh handle.
	s := newTestService(t, Options{})
	s.Lock(42)
	h := s.NewHandle()
	h.Unlock(42)
	if h.lastKey != 42 || h.last == nil {
		t.Fatal("Unlock miss did not populate the cache")
	}
	h.Lock(42) // must hit the cache and the same lock
	h.Unlock(42)
}

// TestFreeInvalidatesOnlyItsKey is the exact-counter claim the death mark
// makes: seven handles parked on keys of their own take ZERO cache misses
// after their warm-up while 64 other keys go through 3 200 Frees
// concurrently, and the free count is exact; a Free of another key leaves
// a handle alone at rest too, and a Free of the handle's own key costs it
// exactly one re-resolve, onto the new incarnation — so the counter would
// have caught a violation.
func TestFreeInvalidatesOnlyItsKey(t *testing.T) {
	const bystanders, rounds = 7, 50
	s := New(Options{})
	defer s.Close()
	churn := make([]uint64, 64)
	for i := range churn {
		churn[i] = 1<<20 + uint64(i)
	}

	// Warmed (exactly one miss: the first resolution) behind a barrier so
	// no worker can miss the churn.
	var misses [bystanders]uint64
	stop := make(chan struct{})
	var warmed, wg sync.WaitGroup
	for i := range misses {
		hot := uint64(i + 1)
		warmed.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := s.NewHandle()
			h.Lock(hot)
			h.Unlock(hot)
			warmed.Done()
			for {
				select {
				case <-stop:
					misses[i] = h.CacheMisses()
					return
				default:
				}
				h.Lock(hot)
				h.Unlock(hot)
			}
		}()
	}
	warmed.Wait()
	for round := 0; round < rounds; round++ {
		for _, k := range churn {
			s.Lock(k)
			s.Unlock(k)
			s.Free(k)
		}
	}
	close(stop)
	wg.Wait()
	for i, m := range misses {
		if m != 1 {
			t.Errorf("handle on key %d: %d cache misses under churn of other keys, want exactly 1", i+1, m)
		}
	}
	want := ShardInfo{Locks: bystanders, Creates: bystanders + rounds*uint64(len(churn)), Frees: rounds * uint64(len(churn))}
	if got := s.ShardStats(); len(got) != 1 || got[0] != want {
		t.Errorf("ShardStats() = %+v, want the one row %+v", got, want)
	}

	// A Free of another key leaves the handle alone.
	ctrl := s.NewHandle()
	ctrl.Lock(churn[0])
	ctrl.Unlock(churn[0])
	s.Lock(churn[1])
	s.Unlock(churn[1])
	s.Free(churn[1])
	ctrl.Lock(churn[0])
	ctrl.Unlock(churn[0])
	if got := ctrl.CacheMisses(); got != 1 {
		t.Errorf("Free of another key: %d misses, want 1 (the warm-up alone)", got)
	}

	// Control: a Free of the handle's own key costs exactly one re-resolve,
	// and the handle then locks the key's new incarnation.
	old := ctrl.last
	s.Free(churn[0])
	ctrl.Lock(churn[0])
	ctrl.Unlock(churn[0])
	ctrl.Lock(churn[0])
	ctrl.Unlock(churn[0])
	if got := ctrl.CacheMisses(); got != 2 {
		t.Errorf("Free of the handle's own key: %d misses, want 2 (warm-up + one re-resolve)", got)
	}
	if ctrl.last == old || ctrl.last != s.table.Get(churn[0]) {
		t.Error("after the Free the handle still locks the freed lock object, not the mapped one")
	}
}
