package gls

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gls/internal/xrand"
	"gls/locks"
	"gls/telemetry"
)

// TestInitLockValidation pins the Table-1 init entry points: InitLockWith
// validates its algorithm exactly like LockWith/TryLockWith/UnlockWith —
// the zero Algorithm (GLS's internal GLK tag) and garbage values panic —
// while the GLK default is reached only through InitLock.
func TestInitLockValidation(t *testing.T) {
	s := newTestService(t, Options{})
	for _, a := range []locks.Algorithm{0, 255} {
		a := a
		mustPanic(t, "InitLockWith(invalid)", func() { s.InitLockWith(a, 1) })
	}
	if n := s.Locks(); n != 0 {
		t.Fatalf("rejected InitLockWith created %d entries", n)
	}
	s.InitLock(1) // the GLK default, via the unexported path
	s.InitLockWith(locks.MCS, 2)
	if n := s.Locks(); n != 2 {
		t.Fatalf("Locks() = %d after two inits, want 2", n)
	}
	s.Lock(1)
	s.Unlock(1)
	s.LockWith(locks.MCS, 2)
	s.Unlock(2)
}

// TestHighCardinalityChurn is the -race stress for the free/re-create
// protocol under the lazy-stripe layout: many keys, every worker locking
// through its own handle (so the dead-mark validation is under fire from
// every Free of a key that handle has cached), stable keys carrying plain
// counters whose mutual exclusion the race detector and a final tally both
// check, and a per-worker churn range that is freed and re-created
// continuously. The telemetry registry runs with a small MaxLocks so the
// idle-fold sweeps race the churn too.
func TestHighCardinalityChurn(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 16, MaxLocks: 24})
	s := newTestService(t, Options{Telemetry: reg})

	const stableKeys = 16
	const perWorker = 64
	const churnBase = uint64(1) << 20
	iters := 4000
	if testing.Short() {
		iters = 1200
	}
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	if workers > 8 {
		workers = 8
	}

	counters := make([]int64, stableKeys) // guarded by their GLS locks
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			rng := xrand.NewSplitMix64(uint64(w)*7919 + 1)
			myBase := churnBase + uint64(w*perWorker)
			for i := 0; i < iters; i++ {
				// Stable key through the handle cache: contended, so these
				// locks inflate their presence stripes mid-test.
				sk := rng.Uintn(stableKeys) + 1
				h.Lock(sk)
				counters[sk-1]++
				h.Unlock(sk)
				// Own churn key: lock, release, sometimes free. Only the
				// owner frees its range, so no goroutine can be inside a
				// lock when its key dies (freeing a key in use is the
				// caller lifecycle bug the paper documents, not this
				// test's subject) — and each Free kills the entry its
				// owner's handle cached last.
				ck := myBase + rng.Uintn(perWorker)
				h.Lock(ck)
				h.Unlock(ck)
				if rng.Uintn(4) == 0 {
					s.Free(ck)
				}
			}
		}(w)
	}
	wg.Wait()

	var total int64
	for _, c := range counters {
		total += c
	}
	if want := int64(workers * iters); total != want {
		t.Fatalf("stable-key counter total = %d, want %d (mutual exclusion broken)", total, want)
	}
	snap := reg.Snapshot()
	if snap.Retired.Locks == 0 {
		t.Fatal("churn retired no telemetry registrations")
	}
	if n := reg.Len(); n >= workers*perWorker {
		t.Fatalf("registry holds %d stats for %d churned keys: the MaxLocks cap did not bound it", n, workers*perWorker)
	}
	// The service itself must still work end to end.
	s.Lock(1)
	s.Unlock(1)
}

// TestEveryUnmappedEntryIsDead races two raw Frees of one key against a
// goroutine re-creating it through the service and another working it
// through a handle. A Free can find its entry already replaced by the time
// it deletes, so it marks what the delete removed as well as what it looked
// up; the invariant at rest is that of every incarnation anybody saw,
// exactly the mapped one is alive — so no handle can be left hitting an
// entry the table has let go of. Only TryLock is used: an Unlock racing a
// Free is the caller's hazard, not this test's subject.
func TestEveryUnmappedEntryIsDead(t *testing.T) {
	s := newTestService(t, Options{})
	const key = 42
	iters := 20000
	if testing.Short() {
		iters = 5000
	}
	h := s.NewHandle()
	seen := [2]map[*entry]bool{{}, {}}
	var done atomic.Bool
	var freers, users sync.WaitGroup
	for g := 0; g < 2; g++ {
		freers.Add(1)
		go func() {
			defer freers.Done()
			for i := 0; !done.Load(); i++ {
				s.Free(key)
				if i%64 == 0 {
					runtime.Gosched() // one CPU: let the other three in
				}
			}
		}()
		users.Add(1)
		go func() {
			defer users.Done()
			// Past iters, until this goroutine too has seen the key turn
			// over.
			for i := 0; i < iters || len(seen[g]) < 8; i++ {
				if i%64 == 0 {
					runtime.Gosched()
				}
				if g == 0 {
					s.TryLock(key)
					if e := s.table.Get(key); e != nil {
						seen[g][e] = true
					}
				} else {
					h.TryLock(key)
					seen[g][h.last] = true
				}
			}
		}()
	}
	users.Wait()
	done.Store(true)
	freers.Wait()

	h.TryLock(key)
	mapped := s.table.Get(key)
	if h.last != mapped || mapped == nil {
		t.Fatalf("at rest the handle caches %p, the table maps %p", h.last, mapped)
	}
	for _, m := range seen {
		for e := range m {
			if e.dead() == (e == mapped) {
				t.Errorf("entry %p: dead = %v, mapped = %v", e, e.dead(), e == mapped)
			}
		}
	}
	if s.Locks() != 1 {
		t.Errorf("Locks() = %d, want exactly the one mapped incarnation", s.Locks())
	}
}
