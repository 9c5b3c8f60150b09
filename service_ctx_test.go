package gls

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gls/locks"
)

// TestLockCtxBackgroundFastPath pins the Never short-circuit: a context
// that cannot fire takes the plain blocking path and returns nil.
func TestLockCtxBackgroundFastPath(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	if err := s.LockCtx(context.Background(), 1); err != nil {
		t.Fatalf("LockCtx(Background) = %v", err)
	}
	s.Unlock(1)
}

// TestLockCtxDeadline covers the three outcomes on an exclusive key: free
// lock acquired, held lock times out with DeadlineExceeded, held lock
// cancelled with Canceled.
func TestLockCtxDeadline(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	const key = 7

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.LockCtx(ctx, key); err != nil {
		t.Fatalf("LockCtx on free key = %v", err)
	}

	// Held: a short deadline must surface DeadlineExceeded.
	short, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	errc := make(chan error)
	go func() { errc <- s.LockCtx(short, key) }()
	if err := <-errc; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("LockCtx on held key = %v, want DeadlineExceeded", err)
	}

	// Held: an explicit cancel must surface Canceled.
	cctx, cancel3 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel3()
	}()
	go func() { errc <- s.LockCtx(cctx, key) }()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("LockCtx on held key = %v, want Canceled", err)
	}

	s.Unlock(key)
	// The lock must still work after the aborted waits.
	s.Lock(key)
	s.Unlock(key)
}

// TestTryLockFor covers the bounded try: free acquires, held waits out the
// budget and fails, freed-within-budget acquires.
func TestTryLockFor(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	const key = 9
	if !s.TryLockFor(key, 10*time.Millisecond) {
		t.Fatal("TryLockFor on free key failed")
	}
	res := make(chan bool)
	go func() { res <- s.TryLockFor(key, 10*time.Millisecond) }()
	if <-res {
		t.Fatal("TryLockFor acquired a held lock")
	}
	go func() { res <- s.TryLockFor(key, 2*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	s.Unlock(key)
	if !<-res {
		t.Fatal("TryLockFor did not acquire within budget after release")
	}
	s.Unlock(key)
	// d <= 0 degenerates to TryLock: instant grab on a free lock, instant
	// failure on a held one.
	if !s.TryLockFor(key, 0) {
		t.Fatal("TryLockFor(0) on free key failed")
	}
	if s.TryLockFor(key, 0) {
		t.Fatal("TryLockFor(0) acquired a held lock")
	}
	s.Unlock(key)
}

// TestLockCtxDebugMode runs the bounded paths through the debug service:
// owner bookkeeping must only record grants, and an aborted wait must leave
// no waiting record behind (the deadlock detector would see a phantom).
func TestLockCtxDebugMode(t *testing.T) {
	var issues []Issue
	var mu sync.Mutex
	s := New(Options{Debug: true, OnIssue: func(i Issue) {
		mu.Lock()
		issues = append(issues, i)
		mu.Unlock()
	}})
	defer s.Close()
	const key = 13
	if err := s.LockCtx(context.Background(), key); err != nil {
		t.Fatalf("debug LockCtx = %v", err)
	}
	short, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	errc := make(chan error)
	go func() { errc <- s.LockCtx(short, key) }()
	if err := <-errc; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("debug LockCtx on held key = %v, want DeadlineExceeded", err)
	}
	s.Unlock(key)
	// Unlock after a clean grant+release cycle must not report issues.
	s.WithLock(key, func() {})
	mu.Lock()
	n := len(issues)
	mu.Unlock()
	if n != 0 {
		t.Fatalf("debug service reported %d issues on clean bounded use: %+v", n, issues)
	}
}

// TestWithLockPanicSafe pins the panic contract: fn's panic propagates, and
// the lock is free afterwards.
func TestWithLockPanicSafe(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	const key = 17
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("WithLock swallowed the panic")
			}
		}()
		s.WithLock(key, func() { panic("section failed") })
	}()
	if !s.TryLock(key) {
		t.Fatal("lock still held after a panicking WithLock")
	}
	s.Unlock(key)
}

// TestLockCtxExplicitAlgorithms exercises the polling fallback end to end:
// keys mapped to algorithms without native abort (CLH) must still honor the
// deadline through the wrapper chain.
func TestLockCtxExplicitAlgorithms(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	const key = 31
	s.LockWith(locks.CLH, key)
	short, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	errc := make(chan error)
	go func() { errc <- s.LockCtx(short, key) }()
	select {
	case err := <-errc:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("LockCtx on held CLH key = %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LockCtx on a CLH key never returned")
	}
	s.Unlock(key)
}
