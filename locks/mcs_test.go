package locks

import (
	"runtime"
	"sync"
	"testing"
)

func TestMCSQueueLenFree(t *testing.T) {
	l := NewMCS()
	if got := l.QueueLen(); got != 0 {
		t.Fatalf("free MCS QueueLen = %d, want 0", got)
	}
}

func TestMCSQueueLenHolderOnly(t *testing.T) {
	l := NewMCS()
	l.Lock()
	if got := l.QueueLen(); got != 1 {
		t.Fatalf("held MCS QueueLen = %d, want 1", got)
	}
	l.Unlock()
}

func TestMCSQueueLenWithWaiters(t *testing.T) {
	l := NewMCS()
	l.Lock()
	const waiters = 3
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Lock()
			l.Unlock()
		}()
	}
	// Wait for all waiters to be linked into the queue. QueueLen counts
	// linked nodes only, so poll until the chain is complete.
	for l.QueueLen() != waiters+1 {
		runtime.Gosched()
	}
	l.Unlock()
	wg.Wait()
	if got := l.QueueLen(); got != 0 {
		t.Fatalf("QueueLen after drain = %d, want 0", got)
	}
}

func TestMCSTryLockOnlyWhenEmpty(t *testing.T) {
	l := NewMCS()
	if !l.TryLock() {
		t.Fatal("TryLock on empty queue failed")
	}
	ok := make(chan bool)
	go func() { ok <- l.TryLock() }()
	if <-ok {
		t.Fatal("TryLock succeeded with non-empty queue")
	}
	l.Unlock()
}

func TestMCSNodeRecycling(t *testing.T) {
	// Exercise pool round-trips under contention; failures here show up as
	// hangs (a recycled node observed locked) or ME violations.
	l := NewMCS()
	var wg sync.WaitGroup
	shared := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Lock()
				shared++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if shared != 8000 {
		t.Fatalf("shared = %d, want 8000", shared)
	}
}

// TestMCSLockedSnapshot: an empty queue is a free lock and a held one
// refuses a try, as TryLock's one look at the tail sees them.
func TestMCSLockedSnapshot(t *testing.T) {
	l := NewMCS()
	if !l.TryLock() {
		t.Fatal("free lock refused TryLock")
	}
	l.Unlock()
	l.Lock()
	if l.TryLock() {
		t.Fatal("held lock granted TryLock")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("released lock refused TryLock")
	}
	l.Unlock()
}
