package gls

import (
	"testing"
	"testing/quick"
	"time"

	"gls/glk"
	"gls/internal/gid"
	"gls/internal/xrand"
)

// TestDeadlockWalkerMatchesGraphTheory drives the §4.2 cycle walker over
// randomly generated wait-for graphs and checks it against an independent
// ground-truth cycle computation.
//
// Construction: n goroutines g_1..g_n, n keys k_1..k_n. Goroutine g_i owns
// key k_i and waits on key k_{π(i)} for a random mapping π. The wait-for
// graph is then the functional graph of π, and g_i is deadlocked exactly
// when i lies on a cycle of π.
func TestDeadlockWalkerMatchesGraphTheory(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%12) + 2
		rng := xrand.NewSplitMix64(seed)
		pi := make([]int, n+1) // 1-based
		for i := 1; i <= n; i++ {
			pi[i] = int(rng.Uintn(uint64(n))) + 1
			if pi[i] == i {
				pi[i] = i%n + 1 // no self-loops: GLS reports those as double locking
			}
		}

		// Ground truth: i is deadlocked iff iterating π from i returns to i.
		onCycle := func(i int) bool {
			slow := i
			for step := 0; step <= n; step++ {
				slow = pi[slow]
				if slow == i {
					return true
				}
			}
			return false
		}

		// Build the synthetic state inside a debug service.
		collected := make(map[uint64]bool) // goroutines reported in any cycle
		s := New(Options{
			Debug:                 true,
			DeadlockWaitThreshold: time.Nanosecond,
			DeadlockCheckInterval: time.Hour,
			GLK:                   &glk.Config{Monitor: quietMonitor()},
			OnIssue: func(i Issue) {
				if i.Kind != IssueDeadlock {
					return
				}
				for _, e := range i.Cycle[:len(i.Cycle)-1] {
					collected[e.Goroutine] = true
				}
			},
		})
		defer s.Close()

		keyOf := func(i int) uint64 { return uint64(1000 + i) }
		for i := 1; i <= n; i++ {
			s.InitLock(keyOf(i))
			s.dbg.setOwner(keyOf(i), gid.ID(i)) // g_i owns k_i
		}
		s.dbg.mu.Lock()
		for i := 1; i <= n; i++ {
			s.dbg.waiting[gid.ID(i)] = &waitRecord{
				key:   keyOf(pi[i]),
				since: time.Now().Add(-time.Hour),
			}
		}
		s.dbg.mu.Unlock()

		s.CheckDeadlocks()

		for i := 1; i <= n; i++ {
			if onCycle(i) != collected[uint64(i)] {
				t.Logf("n=%d pi=%v: goroutine %d onCycle=%v reported=%v",
					n, pi[1:], i, onCycle(i), collected[uint64(i)])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockWalkerIgnoresRunningOwners: an owner that is not waiting
// breaks every chain through it.
func TestDeadlockWalkerIgnoresRunningOwners(t *testing.T) {
	s := New(Options{
		Debug:                 true,
		DeadlockWaitThreshold: time.Nanosecond,
		DeadlockCheckInterval: time.Hour,
		GLK:                   &glk.Config{Monitor: quietMonitor()},
		OnIssue:               func(Issue) {},
	})
	defer s.Close()

	// g1 waits on k2 (owned by g2); g2 is running (no waiting record).
	s.InitLock(1)
	s.dbg.setOwner(1, 1)
	s.InitLock(2)
	s.dbg.setOwner(2, 2)
	s.dbg.mu.Lock()
	s.dbg.waiting[gid.ID(1)] = &waitRecord{key: 2, since: time.Now().Add(-time.Hour)}
	s.dbg.mu.Unlock()

	if n := s.CheckDeadlocks(); n != 0 {
		t.Fatalf("reported %d deadlocks for a chain ending at a running owner", n)
	}
}
