package gls

import (
	"sync"
	"testing"
	"time"

	"gls/glk"
	"gls/internal/sysmon"
	"gls/locks"
)

// quietMonitor returns a monitor that never reports multiprogramming, so
// service tests are independent of machine load.
func quietMonitor() *sysmon.Monitor {
	return sysmon.New(sysmon.Options{Interval: time.Millisecond, DisableProbes: true})
}

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	if opts.GLK == nil {
		opts.GLK = &glk.Config{Monitor: quietMonitor()}
	}
	s := New(opts)
	t.Cleanup(s.Close)
	return s
}

func TestLockUnlockBasic(t *testing.T) {
	s := newTestService(t, Options{})
	s.Lock(17) // the paper's gls_lock(17) is valid
	s.Unlock(17)
	if s.Locks() != 1 {
		t.Fatalf("Locks = %d, want 1", s.Locks())
	}
}

func TestZeroKeyPanics(t *testing.T) {
	s := newTestService(t, Options{})
	for name, f := range map[string]func(){
		"Lock":   func() { s.Lock(0) },
		"Unlock": func() { s.Unlock(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(0) did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestUnlockUnknownKeyPanics(t *testing.T) {
	s := newTestService(t, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of never-locked key did not panic in normal mode")
		}
	}()
	s.Unlock(0xdead)
}

func TestTryLock(t *testing.T) {
	s := newTestService(t, Options{})
	if !s.TryLock(5) {
		t.Fatal("TryLock on fresh key failed")
	}
	res := make(chan bool)
	go func() { res <- s.TryLock(5) }()
	if <-res {
		t.Fatal("TryLock succeeded while held")
	}
	s.Unlock(5)
	if !s.TryLock(5) {
		t.Fatal("TryLock after Unlock failed")
	}
	s.Unlock(5)
}

func TestMutualExclusionAcrossGoroutines(t *testing.T) {
	s := newTestService(t, Options{})
	const key, goroutines, iters = 42, 8, 2000
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.Lock(key)
				counter++
				s.Unlock(key)
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
}

func TestDistinctKeysDistinctLocks(t *testing.T) {
	s := newTestService(t, Options{})
	s.Lock(1)
	// A second key must be acquirable while the first is held.
	done := make(chan struct{})
	go func() {
		s.Lock(2)
		s.Unlock(2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("second key blocked behind first")
	}
	s.Unlock(1)
	if s.Locks() != 2 {
		t.Fatalf("Locks = %d, want 2", s.Locks())
	}
}

func TestExplicitAlgorithms(t *testing.T) {
	s := newTestService(t, Options{})
	for i, a := range locks.Algorithms() {
		key := uint64(100 + i)
		s.LockWith(a, key)
		s.UnlockWith(a, key)
		// Reuse through the generic interface must hit the same lock.
		s.Lock(key)
		s.Unlock(key)
	}
	if s.Locks() != len(locks.Algorithms()) {
		t.Fatalf("Locks = %d, want %d", s.Locks(), len(locks.Algorithms()))
	}
}

func TestExplicitAlgorithmMutualExclusion(t *testing.T) {
	for _, a := range locks.Algorithms() {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			s := newTestService(t, Options{})
			const key = 7
			counter := 0
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 1000; i++ {
						s.LockWith(a, key)
						counter++
						s.UnlockWith(a, key)
					}
				}()
			}
			wg.Wait()
			if counter != 4000 {
				t.Fatalf("counter = %d, want 4000", counter)
			}
		})
	}
}

func TestLockWithInvalidAlgorithmPanics(t *testing.T) {
	s := newTestService(t, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("LockWith(bogus) did not panic")
		}
	}()
	s.LockWith(locks.Algorithm(99), 1)
}

func TestFree(t *testing.T) {
	s := newTestService(t, Options{})
	s.Lock(9)
	s.Unlock(9)
	s.Free(9)
	if s.Locks() != 0 {
		t.Fatalf("Locks after Free = %d, want 0", s.Locks())
	}
	s.Free(9) // double free is a no-op
	s.Free(0) // zero key is ignored
	// The key is usable again (fresh lock object).
	s.Lock(9)
	s.Unlock(9)
}

// TestShardStats checks the occupancy report's books at unit scale: one
// row, a create per key, a free per mapping removed (a Free of an unmapped
// key is none), and Locks what is left.
func TestShardStats(t *testing.T) {
	s := newTestService(t, Options{})
	for k := uint64(1); k <= 5; k++ {
		s.InitLock(k)
	}
	s.Free(1)
	s.Free(1)
	s.Free(99)
	want := ShardInfo{Locks: 4, Creates: 5, Frees: 1}
	if got := s.ShardStats(); len(got) != 1 || got[0] != want {
		t.Errorf("ShardStats() = %+v, want the one row %+v", got, want)
	}
	if s.Locks() != 4 {
		t.Errorf("Locks() = %d, want 4", s.Locks())
	}
}

func TestGLKStats(t *testing.T) {
	s := newTestService(t, Options{})
	for i := 0; i < 300; i++ {
		s.Lock(11)
		s.Unlock(11)
	}
	st, ok := s.GLKStats(11)
	if !ok {
		t.Fatal("GLKStats not available for GLK-managed key")
	}
	if st.Acquired != 300 {
		t.Fatalf("Acquired = %d, want 300", st.Acquired)
	}
	if st.Mode != glk.ModeTicket {
		t.Fatalf("Mode = %v, want ticket (uncontended)", st.Mode)
	}
	s.LockWith(locks.TAS, 12)
	s.UnlockWith(locks.TAS, 12)
	if _, ok := s.GLKStats(12); ok {
		t.Fatal("GLKStats returned data for an explicit-algorithm key")
	}
	if _, ok := s.GLKStats(999); ok {
		t.Fatal("GLKStats returned data for an unknown key")
	}
}

func TestKeyOf(t *testing.T) {
	type obj struct{ x int }
	a, b := &obj{}, &obj{}
	ka, kb := KeyOf(a), KeyOf(b)
	if ka == 0 || kb == 0 {
		t.Fatal("KeyOf returned zero")
	}
	if ka == kb {
		t.Fatal("distinct objects share a key")
	}
	if ka != KeyOf(a) {
		t.Fatal("KeyOf unstable for the same object")
	}
	s := newTestService(t, Options{})
	s.Lock(ka)
	s.Unlock(ka)
}

func TestDefaultServiceSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default returned different services")
	}
	Lock(123456)
	if !func() bool { defer Unlock(123456); return true }() {
		t.Fatal("unreachable")
	}
	if TryLock(123456) {
		Unlock(123456)
	}
	Free(123456)
}

func TestCloseIdempotent(t *testing.T) {
	s := New(Options{Debug: true, GLK: &glk.Config{Monitor: quietMonitor()}})
	s.Close()
	s.Close()
}

func TestManyKeysConcurrent(t *testing.T) {
	s := newTestService(t, Options{})
	const keys = 64
	counters := make([]int, keys)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				k := uint64((seed+i)%keys + 1)
				s.Lock(k)
				counters[k-1]++
				s.Unlock(k)
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != 8*4000 {
		t.Fatalf("total = %d, want %d", total, 8*4000)
	}
	if s.Locks() != keys {
		t.Fatalf("Locks = %d, want %d", s.Locks(), keys)
	}
}
