package gls

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin the Free-with-queued-waiters contract (see the Free doc
// comment): gls_free hands the key's lifecycle to the caller, and a Free
// that races a queued LockCtx waiter strands that waiter on the orphaned
// lock object — every later operation on the key resolves the *new*
// incarnation, so the old holder's Unlock releases the wrong lock and the
// orphan's grant never comes. The first test demonstrates the hazard is
// real (so nobody "fixes" the docs by assuming it away); the second shows
// the supported way to free under concurrency — reach the key through Pin
// and let the last Unpin free it — which is what glsd does (see pin.go).

// TestFreeWithQueuedWaiterOrphans demonstrates the documented hazard, step
// by step:
//
//  1. Free of a held key with a queued waiter detaches both from the
//     table; a fresh Lock mints a new object and acquires immediately,
//     so two goroutines "hold" the key at once.
//  2. The old holder's Unlock resolves the key through the table and so
//     lands on the *new* object — releasing the fresh locker's grant out
//     from under it (a third locker gets in while the fresh one still
//     believes it holds).
//  3. The queued waiter stays parked on the orphaned object forever: the
//     only unlock that could wake it can no longer be addressed. Its
//     escape is the locks.Cancel protocol, which works on the orphan
//     because cancellation never goes through the table.
//
// None of this is a regression to fix at this layer — it is why Free's
// contract requires quiescence, and why glsd frees keys only through
// Unpin, which counts holders, waiters and in-flight attempts alike.
func TestFreeWithQueuedWaiterOrphans(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	const key = 0xfeed

	s.Lock(key)

	// Queue a waiter behind the holder on the original lock object.
	ctx, cancelWaiter := context.WithCancel(context.Background())
	defer cancelWaiter()
	waiterDone := make(chan error, 1)
	var waiterGranted atomic.Bool
	go func() {
		err := s.LockCtx(ctx, key)
		if err == nil {
			waiterGranted.Store(true)
		}
		waiterDone <- err
	}()
	// The GLK lock has no external queue probe; give the waiter ample time
	// to reach the queue, then confirm it is still waiting (the holder has
	// not released, so a granted waiter would be a mutual-exclusion bug).
	time.Sleep(100 * time.Millisecond)
	if waiterGranted.Load() {
		t.Fatal("waiter granted while the key was held")
	}

	// The hazardous Free: key still held, waiter still queued.
	s.Free(key)

	// (1) A fresh locker maps a brand-new object and acquires immediately,
	// even though the old holder never unlocked.
	acquired := make(chan struct{})
	go func() {
		s.Lock(key)
		close(acquired)
	}()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("fresh Lock after Free did not acquire; the orphaning hazard seems gone — update Free's contract docs before relying on it")
	}

	// (2) The old holder's unlock addresses the key, not its orphaned
	// object: it releases the new incarnation, which the fresh locker
	// still holds. A trylock that should be impossible now succeeds.
	s.Unlock(key)
	if !s.TryLock(key) {
		t.Fatal("stale Unlock did not release the new incarnation; update Free's contract docs")
	}

	// (3) The orphaned waiter is still parked — no grant arrived with both
	// unlocks spent — and only cancellation can reclaim it.
	select {
	case err := <-waiterDone:
		t.Fatalf("orphaned waiter resolved unexpectedly (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	cancelWaiter()
	select {
	case err := <-waiterDone:
		if err == nil {
			t.Fatal("orphaned waiter reported a grant after cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not reclaim the orphaned waiter")
	}
}

// TestFreeAfterQuiesceIsSafe shows the same shape as the hazard above —
// a holder, a waiter queued behind it, and the holder letting go of the
// key — made safe by Pin/Unpin instead of by hand-imposed quiescence: the
// holder's Unpin cannot free the key while the waiter's pin is out, the
// waiter is granted the object it queued on, and the last Unpin frees the
// key with nobody inside it.
func TestFreeAfterQuiesceIsSafe(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	const key = 0xbeef

	for round := 0; round < 3; round++ {
		holder := s.pinWith(algoGLK, key)
		if !holder.TryLock() {
			t.Fatalf("round %d: fresh incarnation not acquirable", round)
		}
		waiterPinned := make(chan struct{})
		waiterDone := make(chan struct{})
		go func() {
			defer close(waiterDone)
			w := s.pinWith(algoGLK, key)
			close(waiterPinned)
			if !w.LockCancel(nil) { // queues behind the holder
				t.Errorf("round %d: waiter gave up", round)
			}
			w.Unlock()
			w.Unpin() // the last pin: this one frees the key
		}()
		<-waiterPinned
		holder.Unlock()
		holder.Unpin() // not the last pin: must not free under the waiter
		<-waiterDone
		if got := s.Locks(); got != 0 {
			t.Fatalf("round %d: Locks() = %d after the last Unpin, want 0", round, got)
		}
	}
}
