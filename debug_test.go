package gls

import (
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"gls/glk"
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
	if iss.Stack == "" {
		t.Fatal("deadlock report missing participant backtraces")
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

	free := Issue{Kind: IssueUnlockFree, Key: 0x62a494, Message: "unlock of an already-free lock"}
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
