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
// 2-line mutex + 8 presence stripes = 960 bytes); lazyStripedLockBytes the
// three-line lock that replaced it (arrival line + two holder lines, 40 of
// those bytes a per-lock copy of the config). Pinned here so a field added
// in the wrong place fails tests, not a future capacity planning exercise.
const (
	headLockBytes        = 960
	lazyStripedLockBytes = 192
)

// presentSum reads l's presence counter; a lock with no adaptation state
// has counted nobody.
func presentSum(l *Lock) int64 {
	if st := l.adapt.Load(); st != nil {
		return st.present.Sum()
	}
	return 0
}

// TestLockFootprint pins the compact layout: an idle (never-contended) lock
// is exactly one cache line, a third of the lazily-striped layout and a
// fifteenth of the eager one; the state a contended lock adds is whole
// lines too.
func TestLockFootprint(t *testing.T) {
	got := unsafe.Sizeof(Lock{})
	if want := uintptr(pad.CacheLineSize); got != want {
		t.Errorf("Lock is %d bytes, want %d (1 cache line; DESIGN.md §8)", got, want)
	}
	if got > lazyStripedLockBytes/3 || got > headLockBytes/15 {
		t.Errorf("Lock is %d bytes, above a third of %d", got, lazyStripedLockBytes)
	}
	if s := unsafe.Sizeof(adaptShared{}); s > pad.CacheLineSize {
		t.Errorf("the state's arrival section is %d bytes, spills past its single line (%d)", s, pad.CacheLineSize)
	}
	if s := unsafe.Sizeof(adaptState{}); s > 3*pad.CacheLineSize {
		t.Errorf("adaptation state is %d bytes, more than the three lines a contended lock used to be", s)
	}
}

// TestLockSectionsLineAligned pins the cache-line layout the Lock and
// adaptState doc comments promise, mirroring locks/layout_test.go: the lock
// is one whole line, and each section of the state starts on its own, so a
// future field addition cannot silently put a holder-side write back onto
// a line arriving goroutines read.
func TestLockSectionsLineAligned(t *testing.T) {
	var l Lock
	if off := unsafe.Offsetof(l.lockType); off != 0 {
		t.Errorf("lockType at offset %d, want 0 (head of the lock's line)", off)
	}
	if s := unsafe.Sizeof(l); s%pad.CacheLineSize != 0 {
		t.Errorf("Lock is %d bytes, not a multiple of %d (heap slots would lose line alignment)", s, pad.CacheLineSize)
	}
	var st adaptState
	if off := unsafe.Offsetof(st.adaptShared); off != 0 {
		t.Errorf("the state's arrival section at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(st.adaptHolder); off%pad.CacheLineSize != 0 || off == 0 {
		t.Errorf("the state's holder section at offset %d, want a later line boundary", off)
	}
	if s := unsafe.Sizeof(st); s%pad.CacheLineSize != 0 {
		t.Errorf("adaptation state is %d bytes, not a multiple of %d", s, pad.CacheLineSize)
	}
}

// TestHolderFieldsOffSharedLine verifies the separation the layout exists
// for: the statistics the holder writes every critical section in mcs and
// mutex modes are not in the Lock at all, and inside the adaptation state
// they never share a line with what arrivals read there.
func TestHolderFieldsOffSharedLine(t *testing.T) {
	var st adaptState
	line := func(off uintptr) uintptr { return off / pad.CacheLineSize }
	arrivalLines := map[uintptr]string{
		line(unsafe.Offsetof(st.mcs)):     "mcs",
		line(unsafe.Offsetof(st.mutex)):   "mutex",
		line(unsafe.Offsetof(st.present)): "present",
	}
	holderFields := map[string]uintptr{
		"numAcquired":  unsafe.Offsetof(st.numAcquired),
		"queueTotal":   unsafe.Offsetof(st.queueTotal),
		"queueEMA":     unsafe.Offsetof(st.queueEMA),
		"transitions":  unsafe.Offsetof(st.transitions),
		"aborts":       unsafe.Offsetof(st.aborts),
		"presentToken": unsafe.Offsetof(st.presentToken),
		"sampleIn":     unsafe.Offsetof(st.sampleIn),
		"adaptIn":      unsafe.Offsetof(st.adaptIn),
		"acquiredMode": unsafe.Offsetof(st.acquiredMode),
		"ticketSkips":  unsafe.Offsetof(st.ticketSkips),
		"primed":       unsafe.Offsetof(st.primed),
	}
	for name, off := range holderFields {
		if with, shared := arrivalLines[line(off)]; shared {
			t.Errorf("holder-written field %s shares a line with %s, which arrivals read", name, with)
		}
	}
}

// TestSharedLineContents pins which fields make up the lock's one line — a
// deliberate decision, not an accident (see the Lock doc comment): the mode
// word, the sampling clock, the ticket words, the stats, state and settings
// pointers, the embedder's word and the telemetry lane. Nothing a lock in
// ticket mode reads or writes per acquisition is anywhere else.
func TestSharedLineContents(t *testing.T) {
	var l Lock
	for name, f := range map[string]struct{ off, size uintptr }{
		"lockType": {unsafe.Offsetof(l.lockType), unsafe.Sizeof(l.lockType)},
		"sampleAt": {unsafe.Offsetof(l.sampleAt), unsafe.Sizeof(l.sampleAt)},
		"ticket":   {unsafe.Offsetof(l.ticket), unsafe.Sizeof(l.ticket)},
		"stats":    {unsafe.Offsetof(l.stats), unsafe.Sizeof(l.stats)},
		"adapt":    {unsafe.Offsetof(l.adapt), unsafe.Sizeof(l.adapt)},
		"set":      {unsafe.Offsetof(l.set), unsafe.Sizeof(l.set)},
		"Aux":      {unsafe.Offsetof(l.Aux), unsafe.Sizeof(l.Aux)},
		"lane":     {unsafe.Offsetof(l.lane), unsafe.Sizeof(l.lane)},
	} {
		if f.off+f.size > pad.CacheLineSize {
			t.Errorf("%s at offset %d (+%d) left the lock's line (the idle footprint depends on it fitting)", name, f.off, f.size)
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
			if n := presentSum(l); n != 0 {
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
		if l.adapt.Load() != nil {
			t.Fatalf("instrumented=%v: an uncontended lock built its adaptation state", instrumented)
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

// TestFastPathLeavesHolderLinesAlone pins what an uncontended ticket-mode
// operation touches: Lock, TryLock and Unlock store nothing outside the
// lock's own line — there is nothing else: no adaptation state is built,
// over sampling and adaptation boundaries alike — and between boundaries
// they do not move the clock either, which sits on that line too. The
// boundary acquisition is the one that writes it.
func TestFastPathLeavesHolderLinesAlone(t *testing.T) {
	const period = 50
	l := New(&Config{Monitor: newTestMonitor(), SamplePeriod: period, AdaptPeriod: 2 * period})
	if off := unsafe.Offsetof(l.sampleAt); off/pad.CacheLineSize != unsafe.Offsetof(l.lockType)/pad.CacheLineSize {
		t.Errorf("sampleAt at offset %d: the per-acquisition clock read would pull in another line", off)
	}
	for round := 0; round < 5; round++ {
		before := l.sampleAt
		for i := 0; i < period-1; i++ {
			if i%2 == 0 {
				l.Lock()
			} else if !l.TryLock() {
				t.Fatal("TryLock on a free lock failed")
			}
			l.Unlock()
		}
		if l.sampleAt != before {
			t.Fatalf("round %d: the clock moved between sampling boundaries", round)
		}
		l.Lock()
		l.Unlock()
		if l.sampleAt != before+period {
			t.Fatalf("round %d: acquisition %d of the period did not sample", round, period)
		}
		if l.adapt.Load() != nil {
			t.Fatalf("round %d: an uncontended lock built its adaptation state", round)
		}
	}
	if got, want := l.Stats().Acquired, uint64(5*period); got != want {
		t.Fatalf("Acquired = %d, want %d", got, want)
	}
}

// startTicketsAt moves a fresh lock's ticket words, and the clock that
// follows them, to v — the state of a lock that has made v uncontended
// acquisitions, without making them. The words are locks.TicketCore's
// first two fields.
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
	const before uint64 = 1<<32 - 1 - 5*period/2
	startTicketsAt(l, uint32(before))
	samplesBefore := l.Stats().QueueTotal
	n := before
	for ; n < before+10*period; n++ {
		if got := l.Stats().Acquired; got != n {
			t.Fatalf("Acquired = %d after %d acquisitions (owner word %#x)", got, n, l.ticket.Handoffs())
		}
		if got := l.Stats().QueueTotal - samplesBefore; got != (n-before)/period {
			t.Fatalf("%d samples after %d acquisitions, want %d", got, n-before, (n-before)/period)
		}
		// An uncontended lock needs no state until its clock is set past
		// the wrap, by the last boundary before it.
		if n+period < 1<<32 && l.adapt.Load() != nil {
			t.Fatalf("adaptation state built %d acquisitions before the wrap", 1<<32-n)
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
	if l := New(&Config{Monitor: newTestMonitor()}); l.adapt.Load() != nil {
		t.Error("ticket-mode lock eagerly built its adaptation state")
	}
}
