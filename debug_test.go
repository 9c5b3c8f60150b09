package gls

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"gls/glk"
	"gls/internal/gid"
	"gls/locks"
)

// issueCollector gathers issues thread-safely.
type issueCollector struct {
	mu     sync.Mutex
	issues []Issue
}

func (c *issueCollector) add(i Issue) {
	c.mu.Lock()
	c.issues = append(c.issues, i)
	c.mu.Unlock()
}

func (c *issueCollector) byKind(k IssueKind) []Issue {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Issue
	for _, i := range c.issues {
		if i.Kind == k {
			out = append(out, i)
		}
	}
	return out
}

func newDebugService(t *testing.T, opts Options) (*Service, *issueCollector) {
	t.Helper()
	c := &issueCollector{}
	opts.Debug = true
	opts.OnIssue = c.add
	if opts.GLK == nil {
		opts.GLK = &glk.Config{Monitor: quietMonitor()}
	}
	s := New(opts)
	t.Cleanup(s.Close)
	return s, c
}

func TestDebugCleanUsageNoIssues(t *testing.T) {
	s, c := newDebugService(t, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Lock(1)
				s.Unlock(1)
				if s.TryLock(2) {
					s.Unlock(2)
				}
			}
		}()
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.issues) != 0 {
		t.Fatalf("clean usage produced issues: %v", c.issues)
	}
}

func TestDetectDoubleLock(t *testing.T) {
	s, c := newDebugService(t, Options{})
	s.Lock(10)
	// Second acquisition by the owner: detected at entry; TryLock avoids the
	// self-deadlock a blocking Lock would cause.
	if s.TryLock(10) {
		t.Fatal("TryLock succeeded on own lock")
	}
	got := c.byKind(IssueDoubleLock)
	if len(got) != 1 {
		t.Fatalf("DoubleLock issues = %d, want 1", len(got))
	}
	if got[0].Key != 10 || got[0].Goroutine == 0 || got[0].Goroutine != got[0].Owner {
		t.Fatalf("bad issue: %+v", got[0])
	}
	s.Unlock(10)
}

func TestDetectUnlockOfNeverLockedKey(t *testing.T) {
	s, c := newDebugService(t, Options{})
	s.Unlock(0xbeef) // reported, not panicking, in debug mode
	got := c.byKind(IssueUninitializedLock)
	if len(got) != 1 {
		t.Fatalf("Uninitialized issues = %d, want 1", len(got))
	}
	if !strings.Contains(got[0].Message, "never locked") {
		t.Fatalf("message %q", got[0].Message)
	}
}

func TestDetectUnlockFree(t *testing.T) {
	// The Memcached slabs_rebalance_lock bug: unlocking before ever
	// acquiring (paper §5.1).
	s, c := newDebugService(t, Options{})
	s.InitLock(20)
	s.Unlock(20)
	got := c.byKind(IssueUnlockFree)
	if len(got) != 1 {
		t.Fatalf("UnlockFree issues = %d, want 1", len(got))
	}
	// The faulty unlock was suppressed, so the lock still works.
	s.Lock(20)
	s.Unlock(20)
	if n := len(c.byKind(IssueUnlockFree)); n != 1 {
		t.Fatalf("extra UnlockFree issues after clean use: %d", n)
	}
}

func TestDetectUnlockWrongOwner(t *testing.T) {
	s, c := newDebugService(t, Options{})
	s.Lock(30)
	done := make(chan struct{})
	go func() {
		s.Unlock(30) // not the owner
		close(done)
	}()
	<-done
	got := c.byKind(IssueUnlockWrongOwner)
	if len(got) != 1 {
		t.Fatalf("WrongOwner issues = %d, want 1", len(got))
	}
	if got[0].Owner == got[0].Goroutine {
		t.Fatal("issue claims unlocker owns the lock")
	}
	// Suppressed unlock: the true owner can still release.
	s.Unlock(30)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.issues) != 1 {
		t.Fatalf("unexpected extra issues: %v", c.issues)
	}
}

func TestStrictInitDetectsUninitializedLock(t *testing.T) {
	// The Memcached stats_lock bug: locking a mutex that was never
	// initialized (paper §5.1).
	s, c := newDebugService(t, Options{StrictInit: true})
	s.InitLock(40)
	s.Lock(40) // fine: initialized
	s.Unlock(40)
	if n := len(c.byKind(IssueUninitializedLock)); n != 0 {
		t.Fatalf("false positive on initialized lock: %d", n)
	}
	s.Lock(41) // bug: never initialized
	s.Unlock(41)
	got := c.byKind(IssueUninitializedLock)
	if len(got) != 1 {
		t.Fatalf("Uninitialized issues = %d, want 1", len(got))
	}
	if got[0].Key != 41 {
		t.Fatalf("issue key %#x, want 41", got[0].Key)
	}
	if got[0].Stack == "" {
		t.Fatal("issue missing backtrace")
	}
}

func TestDetectAlgorithmMismatch(t *testing.T) {
	s, c := newDebugService(t, Options{})
	s.LockWith(locks.Ticket, 50)
	s.Unlock(50)
	s.LockWith(locks.MCS, 50) // same key, different explicit algorithm
	s.Unlock(50)
	s.LockWith(locks.MCS, 50) // repeated: deduplicated
	s.Unlock(50)
	got := c.byKind(IssueAlgorithmMismatch)
	if len(got) != 1 {
		t.Fatalf("AlgorithmMismatch issues = %d, want 1 (dedup)", len(got))
	}
	if !strings.Contains(got[0].Message, "mcs") || !strings.Contains(got[0].Message, "ticket") {
		t.Fatalf("message %q", got[0].Message)
	}
}

func TestDetectFreeHeld(t *testing.T) {
	s, c := newDebugService(t, Options{})
	s.Lock(60)
	s.Free(60)
	if n := len(c.byKind(IssueFreeHeld)); n != 1 {
		t.Fatalf("FreeHeld issues = %d, want 1", n)
	}
}

// TestDebugOwnerInDebugState: the owner the §4.2 checks read lives in
// debugState, beside the readers, and a debug-mode key stays its one-line
// lock. Every owner report fires from there — double lock, wrong-owner
// unlock, unlock of a free lock, IssueFreeHeld — each names the recorded
// owner, a wait-for cycle through two recorded owners is found, and no
// release leaves an owner behind.
func TestDebugOwnerInDebugState(t *testing.T) {
	s, c := newDebugService(t, Options{
		DeadlockWaitThreshold: time.Nanosecond,
		DeadlockCheckInterval: time.Hour, // drive detection manually
	})
	owners := func() int {
		s.dbg.mu.Lock()
		defer s.dbg.mu.Unlock()
		return len(s.dbg.owners)
	}
	const key = 0x0e
	me := gid.Get()
	s.Lock(key)
	if !s.table.Get(key).inline() {
		t.Fatal("a debug-mode Lock created a boxed key")
	}
	if got := s.dbg.ownerOf(key); got != me {
		t.Fatalf("owner %d after Lock, want %d", got, me)
	}
	if s.TryLock(key) {
		t.Fatal("TryLock succeeded on own lock")
	}
	wrong := make(chan struct{})
	go func() {
		defer close(wrong)
		s.Unlock(key)
	}()
	<-wrong
	s.Unlock(key)
	if n := owners(); n != 0 {
		t.Fatalf("%d owners recorded after the owner's Unlock, want 0", n)
	}
	s.Unlock(key)
	s.Lock(key)
	s.Free(key)
	if n := owners(); n != 0 {
		t.Fatalf("%d owners recorded after Free, want 0", n)
	}
	for kind, owner := range map[IssueKind]gid.ID{
		IssueDoubleLock:       me,
		IssueUnlockWrongOwner: me,
		IssueUnlockFree:       0,
		IssueFreeHeld:         me,
	} {
		got := c.byKind(kind)
		if len(got) != 1 || got[0].Key != key || got[0].Owner != uint64(owner) {
			t.Errorf("%v: issues %+v, want one on %#x naming owner %d", kind, got, key, owner)
		}
	}

	// g1 holds a and waits for b, g2 holds b and waits for a. The waits are
	// recorded by hand, so the holders are never really stuck.
	const a, b = 0xa0, 0xb0
	release := make(chan struct{})
	held := make(chan gid.ID)
	var wg sync.WaitGroup
	for _, k := range []uint64{a, b} {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			s.Lock(k)
			held <- gid.Get()
			<-release
			s.Unlock(k)
		}(k)
	}
	g1, g2 := <-held, <-held
	if s.dbg.ownerOf(a) != g1 {
		g1, g2 = g2, g1
	}
	s.dbg.mu.Lock()
	s.dbg.waiting[g1] = &waitRecord{key: b, since: time.Now().Add(-time.Hour)}
	s.dbg.waiting[g2] = &waitRecord{key: a, since: time.Now().Add(-time.Hour)}
	s.dbg.mu.Unlock()
	if n := s.CheckDeadlocks(); n != 1 {
		t.Errorf("CheckDeadlocks found %d cycles through the recorded owners, want 1", n)
	}
	s.dbg.clearWaiting(g1)
	s.dbg.clearWaiting(g2)
	close(release)
	wg.Wait()
	if got := c.byKind(IssueDeadlock); len(got) != 1 || len(got[0].Cycle) != 3 {
		t.Errorf("deadlock issues %+v, want one two-goroutine cycle", got)
	}
	if n := owners(); n != 0 {
		t.Errorf("%d owners recorded after every holder let go, want 0", n)
	}
}

func TestDeadlockDetectionTwoCycle(t *testing.T) {
	s, c := newDebugService(t, Options{
		DeadlockWaitThreshold: 20 * time.Millisecond,
		DeadlockCheckInterval: time.Hour, // drive detection manually
	})
	const keyA, keyB = 0xa, 0xb

	g1Locked, g2Locked := make(chan struct{}), make(chan struct{})
	go func() {
		s.Lock(keyA)
		close(g1Locked)
		<-g2Locked
		s.Lock(keyB) // blocks forever
	}()
	go func() {
		s.Lock(keyB)
		close(g2Locked)
		<-g1Locked
		s.Lock(keyA) // blocks forever
	}()
	<-g1Locked
	<-g2Locked

	deadline := time.After(20 * time.Second)
	for len(c.byKind(IssueDeadlock)) == 0 {
		select {
		case <-deadline:
			t.Fatal("deadlock never detected")
		default:
			s.CheckDeadlocks()
			time.Sleep(10 * time.Millisecond)
		}
	}
	got := c.byKind(IssueDeadlock)
	iss := got[0]
	if len(iss.Cycle) != 3 { // two participants + closing edge
		t.Fatalf("cycle = %v, want 2 edges + closing repeat", iss.Cycle)
	}
	if iss.Cycle[0] != iss.Cycle[len(iss.Cycle)-1] {
		t.Fatal("cycle does not close on the starting edge")
	}
	keys := map[uint64]bool{}
	for _, e := range iss.Cycle {
		keys[e.Key] = true
	}
	if !keys[keyA] || !keys[keyB] {
		t.Fatalf("cycle keys %v, want both %#x and %#x", keys, keyA, keyB)
	}
	blocked := strings.Split(iss.Stack, "blocked at:\n")[1:]
	if len(blocked) != 2 {
		t.Fatalf("deadlock report has %d participant backtraces, want 2:\n%s", len(blocked), iss.Stack)
	}
	for _, bt := range blocked {
		if first, _, _ := strings.Cut(bt, "\n"); !strings.HasPrefix(first, "#0 ") || !strings.HasSuffix(first, "(gls.(*Service).Lock)") {
			t.Errorf("participant backtrace starts %q, want frame #0 in Lock", first)
		}
	}

	// Re-running detection must not re-report the same cycle.
	if n := s.CheckDeadlocks(); n != 0 {
		t.Fatalf("CheckDeadlocks re-reported a known cycle (%d)", n)
	}
}

func TestDeadlockDetectionThreeCycleViaWatchdog(t *testing.T) {
	s, c := newDebugService(t, Options{
		DeadlockWaitThreshold: 20 * time.Millisecond,
		DeadlockCheckInterval: 20 * time.Millisecond, // background watchdog
	})
	const kA, kB, kC = 0x100, 0x200, 0x300
	locked := make(chan struct{}, 3)
	hold := make(chan struct{})
	lockPair := func(first, second uint64) {
		s.Lock(first)
		locked <- struct{}{}
		<-hold
		s.Lock(second) // blocks forever
	}
	go lockPair(kA, kB)
	go lockPair(kB, kC)
	go lockPair(kC, kA)
	for i := 0; i < 3; i++ {
		<-locked
	}
	close(hold)

	deadline := time.After(20 * time.Second)
	for len(c.byKind(IssueDeadlock)) == 0 {
		select {
		case <-deadline:
			t.Fatal("watchdog never detected the 3-cycle")
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
	iss := c.byKind(IssueDeadlock)[0]
	if len(iss.Cycle) != 4 { // three participants + closing repeat
		t.Fatalf("cycle %v, want 3 edges + closing repeat", iss.Cycle)
	}
}

func TestNoFalseDeadlockOnOrderedNesting(t *testing.T) {
	s, c := newDebugService(t, Options{
		DeadlockWaitThreshold: time.Millisecond,
		DeadlockCheckInterval: time.Hour,
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				s.Lock(1)
				s.Lock(2) // consistent order: no deadlock possible
				s.Unlock(2)
				s.Unlock(1)
			}
		}()
	}
	checks := make(chan struct{})
	go func() {
		defer close(checks)
		for {
			select {
			case <-stop:
				return
			default:
				if n := s.CheckDeadlocks(); n != 0 {
					t.Error("false deadlock reported")
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-checks
	if n := len(c.byKind(IssueDeadlock)); n != 0 {
		t.Fatalf("false deadlocks: %d", n)
	}
}

func TestIssueStringFormats(t *testing.T) {
	uninit := Issue{Kind: IssueUninitializedLock, Key: 0x6344e0, Message: "lock of a key never initialized (StrictInit)", Stack: "#0 thread.go:662 (f)\n"}
	str := uninit.String()
	if !strings.Contains(str, "[GLS]WARNING> LOCK 0x6344e0 - Uninitialized lock") {
		t.Fatalf("uninit format:\n%s", str)
	}
	if !strings.Contains(str, "[BACKTRACE] #0 thread.go:662") {
		t.Fatalf("missing backtrace:\n%s", str)
	}

	free := Issue{Kind: IssueUnlockFree, Key: 0x62a494, Message: "unlock of an already-free lock", op: opUnlock}
	if !strings.Contains(free.String(), "[GLS]WARNING> UNLOCK 0x62a494 - Already free") {
		t.Fatalf("free format:\n%s", free.String())
	}

	dl := Issue{
		Kind: IssueDeadlock, Key: 0x1ad0010,
		Cycle: []WaitEdge{
			{Goroutine: 2, Key: 0x1ad0010},
			{Goroutine: 9, Key: 0x1acfff4},
			{Goroutine: 2, Key: 0x1ad0010},
		},
	}
	str = dl.String()
	if !strings.Contains(str, "DEADLOCK 0x1ad0010 - cycle detected") {
		t.Fatalf("deadlock header:\n%s", str)
	}
	if !strings.Contains(str, "[2 waits for 0x1ad0010] ->") ||
		!strings.Contains(str, "[9 waits for 0x1acfff4]") {
		t.Fatalf("deadlock cycle lines:\n%s", str)
	}
}

func TestIssueKindStrings(t *testing.T) {
	kinds := []IssueKind{
		IssueUninitializedLock, IssueDoubleLock, IssueUnlockFree,
		IssueUnlockWrongOwner, IssueDeadlock, IssueAlgorithmMismatch, IssueFreeHeld,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		sTxt := k.String()
		if sTxt == "" || strings.HasPrefix(sTxt, "IssueKind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[sTxt] {
			t.Fatalf("duplicate kind name %q", sTxt)
		}
		seen[sTxt] = true
	}
	if !strings.HasPrefix(IssueKind(0).String(), "IssueKind(") {
		t.Fatal("unknown kind not diagnostic")
	}
}

func TestDefaultReporterWritesStderr(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	s := New(Options{Debug: true, GLK: &glk.Config{Monitor: quietMonitor()}})
	defer s.Close()
	s.Unlock(0x77) // unlock of never-locked key: reported on this goroutine
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "[GLS]WARNING>") {
		t.Fatalf("default reporter wrote %q", out)
	}
}

// TestDebugStackStartsAtEntryPoint: an issue raised while acquiring has a
// backtrace whose frame #0 is the public entry point the program called,
// however many service frames lie under it (formatPCs drops them by name).
func TestDebugStackStartsAtEntryPoint(t *testing.T) {
	s, c := newDebugService(t, Options{StrictInit: true})
	ctx, cancel := context.WithCancel(context.Background()) // can fire: LockCtx keeps its own path
	defer cancel()
	for i, e := range []struct {
		name             string
		acquire, release func(key uint64)
	}{
		{"Lock", s.Lock, s.Unlock},
		{"LockWith", func(k uint64) { s.LockWith(locks.Mutex, k) }, s.Unlock},
		{"TryLock", func(k uint64) { s.TryLock(k) }, s.Unlock},
		{"TryLockWith", func(k uint64) { s.TryLockWith(locks.Mutex, k) }, s.Unlock},
		{"LockCtx", func(k uint64) { _ = s.LockCtx(ctx, k) }, s.Unlock},
		{"TryLockFor", func(k uint64) { s.TryLockFor(k, time.Second) }, s.Unlock},
		{"RLock", s.RLock, s.RUnlock},
		{"TryRLock", func(k uint64) { s.TryRLock(k) }, s.RUnlock},
	} {
		key := uint64(0x5100 + i)
		e.acquire(key) // a key never initialized: one issue under StrictInit
		e.release(key)
		got := c.byKind(IssueUninitializedLock)
		if len(got) != i+1 || got[i].Key != key {
			t.Fatalf("%s: uninitialized-lock issues %+v, want a new one on %#x", e.name, got, key)
		}
		first, _, _ := strings.Cut(got[i].Stack, "\n")
		if want := "(gls.(*Service)." + e.name + ")"; !strings.HasPrefix(first, "#0 ") || !strings.HasSuffix(first, want) {
			t.Errorf("%s: backtrace starts %q, want frame #0 in %s", e.name, first, want)
		}
	}
	if n := len(c.issues); n != 8 {
		t.Errorf("%d issues, want the 8 uninitialized-lock ones: %+v", n, c.issues)
	}
}

// TestDebugIssueStartsAtEntryPoint: every issue raised outside the deadlock
// walk has the expected kind, a backtrace whose frame #0 is the entry point
// the program called, and a header naming the operation that raised it.
func TestDebugIssueStartsAtEntryPoint(t *testing.T) {
	recovered := func(f func()) {
		defer func() { _ = recover() }() // the species mismatches panic once reported
		f()
	}
	for _, tc := range []struct {
		name, entry, verb string
		kind              IssueKind
		strict            bool
		raise             func(s *Service, k uint64)
	}{
		{"Unlock never locked", "(*Service).Unlock", "UNLOCK", IssueUninitializedLock, false,
			func(s *Service, k uint64) { s.Unlock(k) }},
		{"Unlock already free", "(*Service).Unlock", "UNLOCK", IssueUnlockFree, false,
			func(s *Service, k uint64) { s.Lock(k); s.Unlock(k); s.Unlock(k) }},
		{"Unlock wrong owner", "(*Service).Unlock", "UNLOCK", IssueUnlockWrongOwner, false,
			func(s *Service, k uint64) {
				s.Lock(k)
				done := make(chan struct{})
				go func() { defer close(done); s.Unlock(k) }()
				<-done
				s.Unlock(k)
			}},
		{"RUnlock never locked", "(*Service).RUnlock", "UNLOCK", IssueUninitializedLock, false,
			func(s *Service, k uint64) { s.RUnlock(k) }},
		{"RUnlock exclusive key", "(*Service).RUnlock", "UNLOCK", IssueAlgorithmMismatch, false,
			func(s *Service, k uint64) { s.Lock(k); s.Unlock(k); s.RUnlock(k) }},
		{"RUnlock not a reader", "(*Service).RUnlock", "UNLOCK", IssueRUnlockNotReader, false,
			func(s *Service, k uint64) { s.InitRWLock(k); s.RUnlock(k) }},
		{"UnlockWith mismatch", "(*Service).UnlockWith", "UNLOCK", IssueAlgorithmMismatch, false,
			func(s *Service, k uint64) { s.LockWith(locks.Mutex, k); s.UnlockWith(locks.Ticket, k) }},
		{"Free held", "(*Service).Free", "FREE", IssueFreeHeld, false,
			func(s *Service, k uint64) { s.Lock(k); s.Free(k) }},
		{"RLock exclusive key", "(*Service).RLock", "LOCK", IssueAlgorithmMismatch, false,
			func(s *Service, k uint64) { s.Lock(k); s.Unlock(k); recovered(func() { s.RLock(k) }) }},
		{"TryRLock exclusive key", "(*Service).TryRLock", "LOCK", IssueAlgorithmMismatch, false,
			func(s *Service, k uint64) { s.Lock(k); s.Unlock(k); recovered(func() { s.TryRLock(k) }) }},
		{"InitRWLock exclusive key", "(*Service).InitRWLock", "LOCK", IssueAlgorithmMismatch, false,
			func(s *Service, k uint64) { s.InitLock(k); recovered(func() { s.InitRWLock(k) }) }},
		{"Handle.RLock exclusive key", "(*Handle).RLock", "LOCK", IssueAlgorithmMismatch, false,
			func(s *Service, k uint64) { s.InitLock(k); recovered(func() { s.NewHandle().RLock(k) }) }},
		{"PinWith default key", "(*Service).PinWith", "LOCK", IssueAlgorithmMismatch, false,
			func(s *Service, k uint64) { s.InitLock(k); recovered(func() { s.PinWith(locks.Mutex, k) }) }},
		{"Lock uninitialized", "(*Service).Lock", "LOCK", IssueUninitializedLock, true,
			func(s *Service, k uint64) { s.Lock(k); s.Unlock(k) }},
		{"RLock uninitialized", "(*Service).RLock", "LOCK", IssueUninitializedLock, true,
			func(s *Service, k uint64) { s.RLock(k); s.RUnlock(k) }},
		{"LockWith mismatch", "(*Service).LockWith", "LOCK", IssueAlgorithmMismatch, false,
			func(s *Service, k uint64) {
				s.LockWith(locks.Mutex, k)
				s.Unlock(k)
				s.LockWith(locks.Ticket, k)
				s.Unlock(k)
			}},
		{"TryLock double lock", "(*Service).TryLock", "LOCK", IssueDoubleLock, false,
			func(s *Service, k uint64) { s.Lock(k); s.TryLock(k); s.Unlock(k) }},
		{"TryLock upgrade", "(*Service).TryLock", "LOCK", IssueUpgradeDeadlock, false,
			func(s *Service, k uint64) { s.RLock(k); s.TryLock(k); s.RUnlock(k) }},
		{"TryRLock upgrade", "(*Service).TryRLock", "LOCK", IssueUpgradeDeadlock, false,
			func(s *Service, k uint64) { s.InitRWLock(k); s.Lock(k); s.TryRLock(k); s.Unlock(k) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, c := newDebugService(t, Options{StrictInit: tc.strict})
			const key = 0x5400
			tc.raise(s, key)
			if len(c.issues) != 1 {
				t.Fatalf("%d issues, want one: %+v", len(c.issues), c.issues)
			}
			iss := c.issues[0]
			if iss.Kind != tc.kind || iss.Key != key {
				t.Errorf("issue %v on %#x, want %v on %#x", iss.Kind, iss.Key, tc.kind, key)
			}
			first, _, _ := strings.Cut(iss.Stack, "\n")
			if want := "(gls." + tc.entry + ")"; !strings.HasPrefix(first, "#0 ") || !strings.HasSuffix(first, want) {
				t.Errorf("backtrace starts %q, want frame #0 in %s", first, want)
			}
			if want := "[GLS]WARNING> " + tc.verb + " "; !strings.HasPrefix(iss.String(), want) {
				t.Errorf("report starts %q, want %q", iss.String(), want)
			}
		})
	}
}

// TestDebugFailedTryRecordsNothing: a debug try that fails records no owner
// and no reader, so neither the holder's release nor the loser's next clean
// use of the key reports anything.
func TestDebugFailedTryRecordsNothing(t *testing.T) {
	s, c := newDebugService(t, Options{})
	const rwKey = 0x5203
	s.InitRWLock(rwKey)
	for _, tc := range []struct {
		name      string
		key       uint64
		hold, use func(key uint64)
		try       func(key uint64) bool
	}{
		{"TryLock", 0x5201, s.Lock, func(k uint64) { s.Lock(k); s.Unlock(k) }, s.TryLock},
		{"TryLockWith", 0x5202,
			func(k uint64) { s.LockWith(locks.Mutex, k) },
			func(k uint64) { s.LockWith(locks.Mutex, k); s.Unlock(k) },
			func(k uint64) bool { return s.TryLockWith(locks.Mutex, k) }},
		{"TryRLock", rwKey, s.Lock, func(k uint64) { s.RLock(k); s.RUnlock(k) }, s.TryRLock},
	} {
		holder, release, done := make(chan gid.ID), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tc.hold(tc.key)
			holder <- gid.Get()
			<-release
			s.Unlock(tc.key)
		}()
		owner := <-holder
		if tc.try(tc.key) {
			t.Fatalf("%s succeeded on a key another goroutine holds", tc.name)
		}
		if got := s.dbg.ownerOf(tc.key); got != owner {
			t.Fatalf("%s: owner %d after the failed try, want the holder %d", tc.name, got, owner)
		}
		if s.dbg.holdsReadShare(tc.key, gid.Get()) {
			t.Fatalf("%s: the failed try recorded a read share", tc.name)
		}
		close(release)
		<-done
		tc.use(tc.key)
	}
	if n := len(c.issues); n != 0 {
		t.Fatalf("failed tries left issues behind: %+v", c.issues)
	}
}

// TestDebugBoundedWaitTimeoutLeavesNoWait: a debug LockCtx or TryLockFor
// that gives up clears its waiting record and records no owner.
func TestDebugBoundedWaitTimeoutLeavesNoWait(t *testing.T) {
	s, c := newDebugService(t, Options{})
	for i, tc := range []struct {
		name string
		wait func(key uint64) bool
	}{
		{"LockCtx", func(k uint64) bool {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			return s.LockCtx(ctx, k) == nil
		}},
		{"TryLockFor", func(k uint64) bool { return s.TryLockFor(k, 10*time.Millisecond) }},
	} {
		key := uint64(0x5300 + i)
		s.Lock(key)
		got := make(chan bool)
		go func() { got <- tc.wait(key) }()
		if <-got {
			t.Fatalf("%s acquired a held key", tc.name)
		}
		s.dbg.mu.Lock()
		waits := len(s.dbg.waiting)
		s.dbg.mu.Unlock()
		if waits != 0 {
			t.Errorf("%s: %d waiting records after the timeout, want 0", tc.name, waits)
		}
		if owner := s.dbg.ownerOf(key); owner != gid.Get() {
			t.Errorf("%s: owner %d after the timeout, want the holder %d", tc.name, owner, gid.Get())
		}
		s.Unlock(key)
	}
	if n := len(c.issues); n != 0 {
		t.Fatalf("timed-out waits left issues behind: %+v", c.issues)
	}
}
