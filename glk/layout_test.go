package glk

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"gls/internal/pad"
	"gls/telemetry"
)

// headLockBytes is the footprint of glk.Lock before lazy striping (PR 1's
// eagerly-sectioned layout: 2 shared lines + holder line + ticket + mcs +
// 2-line mutex + 8 presence stripes = 960 bytes). The ISSUE-3 acceptance
// bar is an idle footprint at least 4× smaller, pinned here so a field
// added in the wrong place fails tests, not a future capacity planning
// exercise.
const headLockBytes = 960

// TestLockFootprint pins the compact layout: an idle (never-contended) lock
// is exactly three cache lines — the shared arrival line plus two holder
// lines — at least 4× below the eager-striping layout it replaced.
func TestLockFootprint(t *testing.T) {
	got := unsafe.Sizeof(Lock{})
	if want := uintptr(3 * pad.CacheLineSize); got != want {
		t.Errorf("Lock is %d bytes, want %d (3 cache lines; DESIGN.md §8)", got, want)
	}
	if got > headLockBytes/4 {
		t.Errorf("Lock is %d bytes, above the ≥4× reduction bar (%d/4 = %d)",
			got, headLockBytes, headLockBytes/4)
	}
	if s := unsafe.Sizeof(lockShared{}); s > pad.CacheLineSize {
		t.Errorf("shared section is %d bytes, spills past its single line (%d)", s, pad.CacheLineSize)
	}
	if s := unsafe.Sizeof(lockHolder{}); s > 2*pad.CacheLineSize {
		t.Errorf("holder section is %d bytes, spills past its two lines", s)
	}
}

// TestLockSectionsLineAligned pins the cache-line layout the Lock doc
// comment promises, mirroring locks/layout_test.go: each section starts on
// its own line, so a future field addition cannot silently put a
// holder-side write back onto the line arriving goroutines read.
func TestLockSectionsLineAligned(t *testing.T) {
	var l Lock
	if off := unsafe.Offsetof(l.lockType); off != 0 {
		t.Errorf("lockType at offset %d, want 0 (head of the shared section)", off)
	}
	if off := unsafe.Offsetof(l.lockHolder); off%pad.CacheLineSize != 0 {
		t.Errorf("holder section at offset %d, not %d-byte aligned", off, pad.CacheLineSize)
	}
	if off := unsafe.Offsetof(l.lockHolder); off/pad.CacheLineSize == 0 {
		t.Error("holder section shares the shared section's cache line")
	}
	if s := unsafe.Sizeof(l); s%pad.CacheLineSize != 0 {
		t.Errorf("Lock is %d bytes, not a multiple of %d (heap slots would lose line alignment)", s, pad.CacheLineSize)
	}
}

// TestHolderFieldsOffSharedLine verifies the separation the layout exists
// for: the statistics the holder writes every critical section never share
// a line with the mode word and ticket words every arrival touches.
func TestHolderFieldsOffSharedLine(t *testing.T) {
	var l Lock
	line := func(off uintptr) uintptr { return off / pad.CacheLineSize }
	sharedLine := line(unsafe.Offsetof(l.lockType))
	holderFields := map[string]uintptr{
		"numAcquired":  unsafe.Offsetof(l.numAcquired),
		"queueTotal":   unsafe.Offsetof(l.queueTotal),
		"queueEMA":     unsafe.Offsetof(l.queueEMA),
		"transitions":  unsafe.Offsetof(l.transitions),
		"presentToken": unsafe.Offsetof(l.presentToken),
		"sampleIn":     unsafe.Offsetof(l.sampleIn),
		"acquiredMode": unsafe.Offsetof(l.acquiredMode),
		"cfg":          unsafe.Offsetof(l.cfg),
	}
	for name, off := range holderFields {
		if line(off) == sharedLine {
			t.Errorf("holder-written field %s shares the arrival line", name)
		}
	}
}

// TestSharedLineContents pins which fields cohabit the arrival line — a
// deliberate decision, not an accident (see the Lock doc comment): the mode
// word, ticket words, stats pointer, deflated presence cell, and the lazy
// lock pointers. Everything written per-acquisition on this line goes
// quiet once the lock leaves the uncontended/pre-inflation regime.
func TestSharedLineContents(t *testing.T) {
	var l Lock
	line := func(off uintptr) uintptr { return off / pad.CacheLineSize }
	for name, off := range map[string]uintptr{
		"ticket":  unsafe.Offsetof(l.ticket),
		"stats":   unsafe.Offsetof(l.stats),
		"present": unsafe.Offsetof(l.present),
		"mcs":     unsafe.Offsetof(l.mcs),
		"mutex":   unsafe.Offsetof(l.mutex),
	} {
		if line(off) != line(unsafe.Offsetof(l.lockType)) {
			t.Errorf("%s at offset %d left the shared line (the idle footprint depends on it fitting)", name, off)
		}
	}
}

// TestRWLockFootprint pins the adaptive RW lock's space budget (ISSUE 4):
// an idle lock is exactly two cache lines — the shared arrival line and
// the writer-only line — comfortably under the 4-line acceptance bar, with
// each section starting on its own line so reader arrivals and writer
// bookkeeping never share.
func TestRWLockFootprint(t *testing.T) {
	got := unsafe.Sizeof(RWLock{})
	if want := uintptr(2 * pad.CacheLineSize); got != want {
		t.Errorf("RWLock is %d bytes, want %d (2 cache lines)", got, want)
	}
	if got > 4*pad.CacheLineSize {
		t.Errorf("RWLock is %d bytes, above the 4-line ISSUE budget", got)
	}
	if s := unsafe.Sizeof(rwShared{}); s > pad.CacheLineSize {
		t.Errorf("rw shared section is %d bytes, spills past its single line", s)
	}
	if s := unsafe.Sizeof(rwHolder{}); s > pad.CacheLineSize {
		t.Errorf("rw holder section is %d bytes, spills past its single line", s)
	}
	var l RWLock
	if off := unsafe.Offsetof(l.rwHolder); off%pad.CacheLineSize != 0 || off == 0 {
		t.Errorf("rw holder section at offset %d, want a later line boundary", off)
	}
	for name, off := range map[string]uintptr{
		"readers": unsafe.Offsetof(l.readers),
		"rwmode":  unsafe.Offsetof(l.rwmode),
		"writer":  unsafe.Offsetof(l.writer),
		"wmu":     unsafe.Offsetof(l.wmu),
		"stats":   unsafe.Offsetof(l.stats),
		"subs":    unsafe.Offsetof(l.subs),
		"starve":  unsafe.Offsetof(l.starve),
		"rseen":   unsafe.Offsetof(l.rseen),
	} {
		if off/pad.CacheLineSize != 0 {
			t.Errorf("%s at offset %d left the shared line", name, off)
		}
	}
}

// TestPresenceCounterLazy pins the lazy-striping contract at the lock
// level: a fresh lock is deflated, contention that sampling turns into a
// move out of ticket mode inflates it, and an uncontended life never
// allocates the spill.
func TestPresenceCounterLazy(t *testing.T) {
	l := New(&Config{Monitor: newTestMonitor(), SamplePeriod: 2, AdaptPeriod: 4})
	if l.PresenceInflated() {
		t.Fatal("fresh lock already inflated")
	}
	for i := 0; i < 1000; i++ {
		l.Lock()
		l.Unlock()
	}
	if l.PresenceInflated() {
		t.Fatal("uncontended lock inflated its presence counter")
	}

	// Sustained contention: two goroutines with a yield inside the critical
	// section (so arrivals overlap even on one P), sample-every-section
	// config, and thresholds a queue of two crosses. The spill arrives with
	// the move to mcs, where arrivals start being counted.
	l2 := New(&Config{Monitor: newTestMonitor(), SamplePeriod: 1, AdaptPeriod: 4, UpThreshold: 1.5, DownThreshold: 1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l2.Lock()
				runtime.Gosched()
				l2.Unlock()
			}
		}()
	}
	deadline := time.After(30 * time.Second)
	for !l2.PresenceInflated() {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatal("sampled contention never moved the lock to mcs and inflated the presence counter")
		default:
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
}

// TestTicketModeCountsNobody pins the ticket-mode half of the presence rule
// on every path, with and without telemetry: holding, failing a TryLock
// and abandoning a LockCancel all leave the presence counter at zero and
// never allocate its spill — the ticket words are the measurement.
func TestTicketModeCountsNobody(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		cfg := &Config{Monitor: newTestMonitor(), SamplePeriod: 2, AdaptPeriod: 4}
		if instrumented {
			cfg.Stats = telemetry.New(telemetry.Options{SamplePeriod: 1}).Register(1, "glk")
		}
		l := New(cfg)
		check := func(when string, wantQueue int64) {
			t.Helper()
			if n := l.present.Sum(); n != 0 {
				t.Fatalf("instrumented=%v, %s: presence counter reads %d, want 0", instrumented, when, n)
			}
			if l.PresenceInflated() {
				t.Fatalf("instrumented=%v, %s: presence counter inflated in ticket mode", instrumented, when)
			}
			if q := l.presentNow(); q != wantQueue {
				t.Fatalf("instrumented=%v, %s: presence gauge reads %d, want %d (the ticket distance)", instrumented, when, q, wantQueue)
			}
		}
		for i := 0; i < 10; i++ { // across sampling and adaptation boundaries
			l.Lock()
			check("holding after Lock", 1)
			l.Unlock()
			check("after Unlock", 0)
		}
		if !l.TryLock() {
			t.Fatal("TryLock on a free lock failed")
		}
		check("holding after TryLock", 1)
		res := make(chan bool)
		go func() { res <- l.TryLock() }()
		if <-res {
			t.Fatal("TryLock succeeded on a held lock")
		}
		check("after a failed TryLock", 1)
		go func() { res <- l.LockCancel(deadlineIn(time.Millisecond)) }()
		if <-res {
			t.Fatal("LockCancel acquired a held lock")
		}
		check("after an aborted LockCancel", 1)
		l.Unlock()
		if !l.LockCancel(deadlineIn(time.Hour)) {
			t.Fatal("LockCancel on a free lock failed")
		}
		check("holding after LockCancel", 1)
		l.Unlock()
		check("at rest", 0)
		if got := l.Mode(); got != ModeTicket {
			t.Fatalf("instrumented=%v: lock left ticket mode (%v)", instrumented, got)
		}
	}
}

// holderBytes copies the holder section of l.
func holderBytes(l *Lock) [unsafe.Sizeof(lockHolder{})]byte {
	return *(*[unsafe.Sizeof(lockHolder{})]byte)(unsafe.Pointer(&l.lockHolder))
}

// TestFastPathLeavesHolderLinesAlone pins what an uncontended ticket-mode
// operation touches: between sampling boundaries Lock, TryLock and Unlock
// store nothing outside the shared line — not a byte of the holder section
// moves over SamplePeriod−1 acquisitions — and the clock they read sits on
// the shared line too. The boundary acquisition is the one that writes.
func TestFastPathLeavesHolderLinesAlone(t *testing.T) {
	const period = 50
	l := New(&Config{Monitor: newTestMonitor(), SamplePeriod: period, AdaptPeriod: 4 * period})
	if off := unsafe.Offsetof(l.sampleAt); off/pad.CacheLineSize != unsafe.Offsetof(l.lockType)/pad.CacheLineSize {
		t.Errorf("sampleAt at offset %d: the per-acquisition clock read would pull in another line", off)
	}
	for round := 0; round < 3; round++ {
		before := holderBytes(l)
		for i := 0; i < period-1; i++ {
			if i%2 == 0 {
				l.Lock()
			} else if !l.TryLock() {
				t.Fatal("TryLock on a free lock failed")
			}
			l.Unlock()
		}
		if holderBytes(l) != before {
			t.Fatalf("round %d: the holder section changed between sampling boundaries", round)
		}
		l.Lock()
		l.Unlock()
		if holderBytes(l) == before {
			t.Fatalf("round %d: acquisition %d of the period did not sample", round, period)
		}
	}
	if got, want := l.Stats().Acquired, uint64(3*period); got != want {
		t.Fatalf("Acquired = %d, want %d", got, want)
	}
}

// startTicketsAt moves a fresh lock's ticket words, and the clock that
// follows them, to v — a long-lived lock's state without the 2^32
// acquisitions. The words are locks.TicketCore's first two fields.
func startTicketsAt(l *Lock, v uint32) {
	words := (*[2]atomic.Uint32)(unsafe.Pointer(&l.ticket))
	words[0].Store(v)
	words[1].Store(v)
	l.sampleAt += v
}

// TestTicketClockWraps runs the ticket-mode clock across the 32-bit wrap
// with a period that divides nothing: a sample every SamplePeriod
// acquisitions, Acquired exact after each one, and an abandoned ticket —
// which owner steps over without anyone acquiring — subtracted.
func TestTicketClockWraps(t *testing.T) {
	const period = 37
	l := New(&Config{Monitor: newTestMonitor(), SamplePeriod: period, AdaptPeriod: 3 * period})
	startTicketsAt(l, ^uint32(0)-5*period/2)
	n := uint64(0)
	for ; n < 10*period; n++ {
		if got := l.Stats().Acquired; got != n {
			t.Fatalf("Acquired = %d after %d acquisitions (owner word %#x)", got, n, l.ticket.Handoffs())
		}
		if got := l.Stats().QueueTotal; got != n/period {
			t.Fatalf("%d samples after %d acquisitions, want %d", got, n, n/period)
		}
		if n%3 == 0 {
			if !l.TryLock() {
				t.Fatal("TryLock on a free lock failed")
			}
		} else {
			l.Lock()
		}
		l.Unlock()
	}
	if l.ticket.Handoffs() > 10*period {
		t.Fatalf("owner word %#x: the run did not cross the wrap", l.ticket.Handoffs())
	}

	// A waiter with a later ticket behind it cannot retire its own: it
	// abandons, and the release steps over it.
	l.Lock()
	n++
	res := make(chan bool)
	go func() { res <- l.LockCancel(deadlineIn(20 * time.Millisecond)) }()
	for l.ticket.QueueLen() != 2 {
		runtime.Gosched()
	}
	go func() { l.Lock(); res <- true }()
	for l.ticket.QueueLen() != 3 {
		runtime.Gosched()
	}
	if <-res {
		t.Fatal("LockCancel acquired a held lock")
	}
	if l.ticket.Abandons() != 1 {
		t.Fatalf("Abandons = %d, want 1 (the waiter should not have been able to retire)", l.ticket.Abandons())
	}
	l.Unlock()
	<-res
	n++
	l.Unlock()
	if got := l.Stats().Acquired; got != n {
		t.Fatalf("Acquired = %d after %d acquisitions and one abandoned ticket", got, n)
	}
}

// TestInitialModePreInflates: a lock born in a contended mode (frozen mcs —
// the Figure 6 baseline) must not pay the detection window: it starts
// striped, with its low-level lock allocated.
func TestInitialModePreInflates(t *testing.T) {
	for _, m := range []Mode{ModeMCS, ModeMutex} {
		l := New(&Config{Monitor: newTestMonitor(), InitialMode: m, DisableAdaptation: true})
		if !l.PresenceInflated() {
			t.Errorf("InitialMode=%v lock not pre-inflated", m)
		}
		l.Lock()
		l.Unlock()
	}
	if l := New(&Config{Monitor: newTestMonitor()}); l.mcs.Load() != nil || l.mutex.Load() != nil {
		t.Error("ticket-mode lock eagerly allocated mcs/mutex low-level locks")
	}
}
