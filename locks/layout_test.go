package locks

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"gls/internal/pad"
)

// TestLockSizesCacheLinePadded verifies the §3.2 requirement: "for fairness
// and for avoiding false cache-line sharing, we pad all locks to 64 bytes".
func TestLockSizesCacheLinePadded(t *testing.T) {
	cases := map[string]uintptr{
		"TASLock":     unsafe.Sizeof(TASLock{}),
		"TTASLock":    unsafe.Sizeof(TTASLock{}),
		"TicketLock":  unsafe.Sizeof(TicketLock{}),
		"MCSLock":     unsafe.Sizeof(MCSLock{}),
		"CLHLock":     unsafe.Sizeof(CLHLock{}),
		"RWTTAS":      unsafe.Sizeof(RWTTAS{}),
		"RWStriped":   unsafe.Sizeof(RWStriped{}),
		"RWWritePref": unsafe.Sizeof(RWWritePref{}),
		"RWPhaseFair": unsafe.Sizeof(RWPhaseFair{}),
		"MutexLock":   unsafe.Sizeof(MutexLock{}),
	}
	for name, size := range cases {
		if size%pad.CacheLineSize != 0 {
			t.Errorf("%s is %d bytes, not a multiple of %d", name, size, pad.CacheLineSize)
		}
		if size < pad.CacheLineSize {
			t.Errorf("%s is %d bytes, smaller than one cache line", name, size)
		}
	}
	if s := unsafe.Sizeof(mcsNode{}); s%pad.CacheLineSize != 0 {
		t.Errorf("mcsNode is %d bytes, not line-aligned (waiters must spin on private lines)", s)
	}
	if s := unsafe.Sizeof(clhNode{}); s%pad.CacheLineSize != 0 {
		t.Errorf("clhNode is %d bytes, not line-aligned", s)
	}
}

// TestRWLockFootprints pins the glsrw space budget (ISSUE 4): an idle
// striped-reader lock is exactly one cache line — writer flag, writer
// ticket, and the deflated inline reader cell all on the line a reader
// must touch anyway — and every RW lock in the family stays within four
// lines idle. The striped spill (stripe.SpillBytes) is heap, paid only
// after observed reader concurrency, and kept from then on.
func TestRWLockFootprints(t *testing.T) {
	if s := unsafe.Sizeof(RWStriped{}); s != pad.CacheLineSize {
		t.Errorf("RWStriped is %d bytes, want exactly one %d-byte line (deflated idle footprint)",
			s, pad.CacheLineSize)
	}
	if s := unsafe.Sizeof(RWPhaseFair{}); s != pad.CacheLineSize {
		t.Errorf("RWPhaseFair is %d bytes, want exactly one %d-byte line (all four ticket words cohabit)",
			s, pad.CacheLineSize)
	}
	for name, size := range map[string]uintptr{
		"RWTTAS":      unsafe.Sizeof(RWTTAS{}),
		"RWStriped":   unsafe.Sizeof(RWStriped{}),
		"RWWritePref": unsafe.Sizeof(RWWritePref{}),
		"RWPhaseFair": unsafe.Sizeof(RWPhaseFair{}),
	} {
		if size > 4*pad.CacheLineSize {
			t.Errorf("%s is %d bytes, above the 4-line idle RW budget", name, size)
		}
	}
}

// TestMutexCrossGoroutineUnlock documents that MutexLock (alone among the
// blocking-capable locks) tolerates unlock from a different goroutine —
// the reader-side of the blocking RW lock depends on it.
func TestMutexCrossGoroutineUnlock(t *testing.T) {
	l := NewMutex()
	l.Lock()
	done := make(chan struct{})
	go func() {
		l.Unlock() // different goroutine
		close(done)
	}()
	<-done
	if !l.TryLock() {
		t.Fatal("lock not released by cross-goroutine unlock")
	}
	l.Unlock()
}

// TestTicketProportionalBackoffLongQueue exercises the capped proportional
// wait path (distance > 16).
func TestTicketProportionalBackoffLongQueue(t *testing.T) {
	l := NewTicket()
	l.Lock()
	const waiters = 24
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Lock()
			l.Unlock()
		}()
	}
	// Wait until the queue is deep enough that late arrivals hit the cap.
	for l.QueueLen() < waiters/2 {
		runtime.Gosched()
	}
	l.Unlock()
	wg.Wait()
	if got := l.QueueLen(); got != 0 {
		t.Fatalf("QueueLen after drain = %d", got)
	}
}
