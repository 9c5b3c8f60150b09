package locks

import (
	"sync"
	"testing"
)

func TestCLHInitialSentinelFree(t *testing.T) {
	l := NewCLH()
	if !l.TryLock() {
		t.Fatal("fresh CLH lock refused TryLock")
	}
	l.Unlock()
	l.Lock()
	if l.TryLock() {
		t.Fatal("held CLH lock granted TryLock")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("released CLH lock refused TryLock")
	}
	l.Unlock()
}

func TestCLHTryLockQueued(t *testing.T) {
	l := NewCLH()
	l.Lock()
	ok := make(chan bool)
	go func() { ok <- l.TryLock() }()
	if <-ok {
		t.Fatal("TryLock succeeded while held")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock failed on free lock")
	}
	l.Unlock()
}

func TestCLHReleasedNodeStaysReleased(t *testing.T) {
	// The ABA-safety argument for TryLock relies on nodes never flipping
	// back to locked. Exercise heavy churn and confirm TryLock never admits
	// two holders.
	l := NewCLH()
	var holders int32
	var bad bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if !l.TryLock() {
					continue
				}
				mu.Lock()
				holders++
				if holders != 1 {
					bad = true
				}
				holders--
				mu.Unlock()
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if bad {
		t.Fatal("two concurrent TryLock holders observed")
	}
}
