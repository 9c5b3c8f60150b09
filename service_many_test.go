package gls

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gls/internal/xrand"
	"gls/locks"
	"gls/telemetry"
)

// batchOrder returns keys sorted the way LockMany acquires them: by key.
// Tests use it to address "the i-th lock the batch will take" without
// reaching into unexported state.
func batchOrder(keys []uint64) []uint64 {
	out := slices.Clone(keys)
	slices.Sort(out)
	return out
}

// TestLockManyMutualExclusion checks that overlapping batches serialize on
// their shared keys: every batch increments a plain counter per held key,
// and the totals come out exact only if each key's lock was really held.
func TestLockManyMutualExclusion(t *testing.T) {
	s := New(Options{})
	defer s.Close()

	keys := []uint64{3, 1_000_003, 2_000_003, 3_000_003, 4_000_003}
	counts := make(map[uint64]*int, len(keys))
	for _, k := range keys {
		counts[k] = new(int)
	}
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewSplitMix64(seed)
			for r := 0; r < rounds; r++ {
				// A random overlapping subset, in random order.
				batch := make([]uint64, 0, len(keys))
				for _, k := range keys {
					if rng.Uintn(2) == 0 {
						batch = append(batch, k)
					}
				}
				for i := range batch {
					j := int(rng.Uintn(uint64(i + 1)))
					batch[i], batch[j] = batch[j], batch[i]
				}
				s.WithLockMany(batch, func() {
					for _, k := range batch {
						*counts[k]++ // unsynchronized on purpose: the lock is the synchronization
					}
				})
			}
		}(uint64(w + 1))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("LockMany workers wedged: ordered acquisition should make deadlock impossible")
	}
	var total int
	for _, k := range keys {
		total += *counts[k]
	}
	if total == 0 {
		t.Fatal("no increments recorded")
	}
	// Exactness check: under -race the detector additionally proves the
	// increments were ordered by the locks.
	t.Logf("total increments %d across %d keys", total, len(keys))
}

// TestLockManyOrderedAcquisition is the deadlock-freedom property test:
// goroutines repeatedly batch-lock random overlapping subsets of a small
// key universe — the textbook recipe for deadlock if acquisition order ever
// diverged — under a watchdog. A second phase mixes in reversed and
// duplicated key lists to check that order is imposed by the service, not
// by the caller.
func TestLockManyOrderedAcquisition(t *testing.T) {
	s := New(Options{})
	defer s.Close()

	universe := make([]uint64, 10)
	for i := range universe {
		universe[i] = uint64(i + 1)
	}
	const workers = 6
	rounds := 300
	if testing.Short() {
		rounds = 50
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewSplitMix64(seed)
			for r := 0; r < rounds; r++ {
				n := int(rng.Uintn(uint64(len(universe)))) + 1
				batch := make([]uint64, n)
				for i := range batch {
					batch[i] = universe[rng.Uintn(uint64(len(universe)))] // duplicates welcome
				}
				if rng.Uintn(2) == 0 { // adversarial caller order
					for i, j := 0, len(batch)-1; i < j; i, j = i+1, j-1 {
						batch[i], batch[j] = batch[j], batch[i]
					}
				}
				s.LockMany(batch...)
				s.UnlockMany(batch...)
			}
		}(uint64(w)*2654435761 + 17)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("overlapping LockMany batches deadlocked")
	}
}

// TestTryLockManyBackout holds the i-th lock of the batch order for EVERY
// position i and checks the all-or-nothing contract at each: TryLockMany
// reports false, and every other key of the batch is immediately
// TryLock-able afterwards — the backout released exactly what the attempt
// had granted, whether it failed on the first key, the last, or any in
// between.
func TestTryLockManyBackout(t *testing.T) {
	s := New(Options{})
	defer s.Close()

	keys := []uint64{3_000_011, 11, 5_000_011, 1_000_011, 4_000_011, 2_000_011}
	ordered := batchOrder(keys)
	for i, blocked := range ordered {
		acquired := make(chan struct{})
		release := make(chan struct{})
		done := make(chan struct{})
		go func() {
			s.Lock(blocked)
			close(acquired)
			<-release
			s.Unlock(blocked)
			close(done)
		}()
		<-acquired

		if s.TryLockMany(keys...) {
			t.Fatalf("position %d: TryLockMany succeeded with %#x held", i, blocked)
		}
		for _, k := range keys {
			if k == blocked {
				if s.TryLock(k) {
					t.Fatalf("position %d: blocked key %#x acquirable after failed batch", i, k)
				}
				continue
			}
			if !s.TryLock(k) {
				t.Errorf("position %d: key %#x still held after backout", i, k)
				continue
			}
			s.Unlock(k)
		}
		// Drain the holder before the next position: a lingering holder
		// would contaminate the next iteration's "everything else is free"
		// assertion.
		close(release)
		<-done
	}

	// With nothing held, the batch must succeed and release cleanly.
	if !s.TryLockMany(keys...) {
		t.Fatal("TryLockMany failed with nothing held")
	}
	s.UnlockMany(keys...)
	if !s.TryLockMany(keys...) {
		t.Fatal("TryLockMany failed after a full batch cycle")
	}
	s.UnlockMany(keys...)
}

// TestLockManyDuplicatesCoalesce pins the dedup rule end to end: a batch
// with repeats holds each key once (a plain Unlock balances it) and
// UnlockMany with the same messy list releases once, not thrice.
func TestLockManyDuplicatesCoalesce(t *testing.T) {
	s := New(Options{})
	defer s.Close()

	s.LockMany(9, 9, 7, 9, 7)
	if s.TryLock(9) || s.TryLock(7) {
		t.Fatal("batch did not hold its keys")
	}
	s.UnlockMany(7, 9, 9, 9, 7)
	if !s.TryLock(9) {
		t.Fatal("key 9 not released by deduplicated UnlockMany")
	}
	s.Unlock(9)
	if !s.TryLock(7) {
		t.Fatal("key 7 not released by deduplicated UnlockMany")
	}
	s.Unlock(7)

	// Degenerate forms: empty is a no-op, single delegates to Lock/Unlock.
	s.LockMany()
	s.UnlockMany()
	s.LockMany(42)
	s.UnlockMany(42)
	if !s.TryLockMany() {
		t.Fatal("empty TryLockMany should report true")
	}
}

// TestUnlockManyNeverLocked pins the panic for releasing unknown keys, and
// the zero-key panic shared with the single-key surface.
func TestUnlockManyNeverLocked(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("UnlockMany of a never-locked key did not panic")
			}
			if msg, _ := r.(string); !strings.Contains(msg, "key was never locked") {
				t.Fatalf("panic = %v, want the never-locked message", r)
			}
		}()
		s.InitLock(1)
		s.Lock(1)
		defer s.Unlock(1)
		s.UnlockMany(1, 0xdead)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("LockMany with a zero key did not panic")
			}
		}()
		s.LockMany(5, 0)
	}()
}

// TestLockManyDebugMode runs the batch surface through a debug service:
// the per-goroutine owner checks must see batched acquisitions exactly like
// singles, including the TryLockMany backout path (which unwinds owner
// state, not just lock words).
func TestLockManyDebugMode(t *testing.T) {
	s, c := newDebugService(t, Options{})

	s.LockMany(3, 5, 7)
	s.UnlockMany(7, 5, 3)

	hold := make(chan struct{})
	held := make(chan struct{})
	go func() {
		s.Lock(5)
		close(held)
		<-hold
		s.Unlock(5)
	}()
	<-held
	if s.TryLockMany(3, 5, 7) {
		t.Fatal("debug TryLockMany succeeded over a held key")
	}
	close(hold)
	// After backout the owner table must be clean: a fresh batch succeeds.
	deadline := time.After(10 * time.Second)
	for !s.TryLockMany(3, 5, 7) {
		select {
		case <-deadline:
			t.Fatal("batch never acquirable after debug backout")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	s.UnlockMany(3, 5, 7)
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.issues); n != 0 {
		t.Fatalf("debug checker reported %d issues for balanced batches: %v", n, c.issues)
	}
}

// batchSurface is LockMany/TryLockMany/UnlockMany, or what they promise to
// be: the single-key calls, once per key, in key order.
type batchSurface struct {
	lock    func(s *Service, keys ...uint64)
	tryLock func(s *Service, keys ...uint64) bool
	unlock  func(s *Service, keys ...uint64)
}

var batchSurfaces = map[string]batchSurface{
	"many": {(*Service).LockMany, (*Service).TryLockMany, (*Service).UnlockMany},
	"singles": {
		lock: func(s *Service, keys ...uint64) {
			for _, k := range slices.Compact(batchOrder(keys)) {
				s.Lock(k)
			}
		},
		tryLock: func(s *Service, keys ...uint64) bool {
			held := slices.Compact(batchOrder(keys))
			for i, k := range held {
				if !s.TryLock(k) {
					for j := i - 1; j >= 0; j-- {
						s.Unlock(held[j])
					}
					return false
				}
			}
			return true
		},
		unlock: func(s *Service, keys ...uint64) {
			held := slices.Compact(batchOrder(keys))
			for i := len(held) - 1; i >= 0; i-- {
				s.Unlock(held[i])
			}
		},
	},
}

// TestLockManyDebugParity runs each misuse the debug checker knows through
// the batch calls and through the equivalent single-key sequence, and
// requires the same issues — kind and key, in order — from both: a batch has
// no debug path of its own to drift.
func TestLockManyDebugParity(t *testing.T) {
	// elsewhere runs fn on another goroutine, to its end.
	elsewhere := func(fn func()) {
		done := make(chan struct{})
		go func() { defer close(done); fn() }()
		<-done
	}
	misuses := []struct {
		name string
		opts Options
		want []IssueKind
		run  func(s *Service, b batchSurface)
	}{
		{"double lock", Options{}, []IssueKind{IssueDoubleLock}, func(s *Service, b batchSurface) {
			b.lock(s, 5, 3)
			if b.tryLock(s, 3, 5, 3) {
				t.Error("TryLock of an owned batch succeeded")
			}
			b.unlock(s, 3, 5)
		}},
		{"unlock free", Options{}, []IssueKind{IssueUnlockFree, IssueUnlockFree}, func(s *Service, b batchSurface) {
			b.lock(s, 3, 5)
			b.unlock(s, 3, 5)
			b.unlock(s, 5, 3, 5)
		}},
		{"never locked", Options{}, []IssueKind{IssueUninitializedLock, IssueUninitializedLock}, func(s *Service, b batchSurface) {
			b.unlock(s, 7, 9)
		}},
		{"wrong owner", Options{}, []IssueKind{IssueUnlockWrongOwner, IssueUnlockWrongOwner}, func(s *Service, b batchSurface) {
			b.lock(s, 3, 5)
			elsewhere(func() { b.unlock(s, 3, 5) })
			b.unlock(s, 3, 5)
		}},
		{"strict init", Options{StrictInit: true}, []IssueKind{IssueUninitializedLock}, func(s *Service, b batchSurface) {
			s.InitLock(3)
			if !b.tryLock(s, 3, 5) {
				t.Error("TryLock of a free batch failed")
			}
			b.unlock(s, 3, 5)
		}},
		{"algorithm mismatch", Options{}, []IssueKind{IssueAlgorithmMismatch}, func(s *Service, b batchSurface) {
			s.LockWith(locks.Ticket, 5)
			s.UnlockWith(locks.Ticket, 5)
			b.lock(s, 3, 5)
			b.unlock(s, 3, 5)
		}},
	}
	type seen struct {
		Kind IssueKind
		Key  uint64
	}
	for _, m := range misuses {
		t.Run(m.name, func(t *testing.T) {
			got := map[string][]seen{}
			for name, b := range batchSurfaces {
				s, c := newDebugService(t, m.opts)
				m.run(s, b)
				for _, iss := range c.issues {
					got[name] = append(got[name], seen{iss.Kind, iss.Key})
				}
			}
			if !slices.Equal(got["many"], got["singles"]) {
				t.Errorf("batch calls reported %v, the single-key sequence %v", got["many"], got["singles"])
			}
			kinds := make([]IssueKind, 0, len(got["many"]))
			for _, g := range got["many"] {
				kinds = append(kinds, g.Kind)
			}
			if !slices.Equal(kinds, m.want) {
				t.Errorf("reported %v, want %v", kinds, m.want)
			}
		})
	}
}

// TestLockManyFreeFoldSoak is the -race soak: batch workers over a stable
// key set and a churn goroutine Lock/Free-ing a disjoint set, each Free
// folding its stats out of the telemetry registry — the writers to table
// and registry state running together. The assertion is simply "no race,
// no wedge, counters exact".
func TestLockManyFreeFoldSoak(t *testing.T) {
	reg := telemetry.New(telemetry.Options{})
	s := New(Options{Telemetry: reg})
	defer s.Close()

	stable := []uint64{21, 1_000_021, 2_000_021, 3_000_021}
	var hits atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewSplitMix64(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := stable[:1+rng.Uintn(uint64(len(stable)))]
				s.WithLockMany(batch, func() { hits.Add(1) })
			}
		}(uint64(w + 101))
	}
	wg.Add(1)
	go func() { // churn a disjoint key range through create/Free
		defer wg.Done()
		k := uint64(9_000_000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			k++
			s.Lock(k)
			s.Unlock(k)
			s.Free(k)
		}
	}()
	dur := 500 * time.Millisecond
	if testing.Short() {
		dur = 100 * time.Millisecond
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	if hits.Load() == 0 {
		t.Fatal("soak performed no batch acquisitions")
	}
	// The stable keys were never freed: they must all still be lockable.
	s.LockMany(stable...)
	s.UnlockMany(stable...)
}

// BenchmarkLockMany prices a batch against its hand-written equivalent:
// LockMany/UnlockMany over random overlapping subsets of a 64-key universe,
// beside the same keys sorted the way the batch sorts them, deduplicated,
// and taken one Lock at a time. Both report ns per key acquired, so the
// rows compare directly.
func BenchmarkLockMany(b *testing.B) {
	const universe = 64
	for _, batch := range []int{2, 4, 16} {
		for _, singles := range []bool{false, true} {
			name := "lockmany"
			if singles {
				name = "singles"
			}
			b.Run(name+"/batch="+strconv.Itoa(batch), func(b *testing.B) {
				s := New(Options{})
				defer s.Close()
				var seed, keyOps atomic.Uint64
				b.RunParallel(func(pb *testing.PB) {
					rng := xrand.NewSplitMix64(seed.Add(2654435761))
					keys := make([]uint64, batch)
					var n uint64
					for pb.Next() {
						for i := range keys {
							keys[i] = rng.Uintn(universe) + 1
						}
						if !singles {
							s.LockMany(keys...)
							s.UnlockMany(keys...)
							n += uint64(batch)
							continue
						}
						held := slices.Compact(batchOrder(keys))
						for _, k := range held {
							s.Lock(k)
						}
						for i := len(held) - 1; i >= 0; i-- {
							s.Unlock(held[i])
						}
						n += uint64(len(held))
					}
					keyOps.Add(n)
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(keyOps.Load()), "ns/key")
			})
		}
	}
}
