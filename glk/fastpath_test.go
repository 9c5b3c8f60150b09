package glk

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"gls/internal/sysmon"
	"gls/locks"
	"gls/telemetry"
)

// The tests below cover every exit of the try in front of Lock: each case
// the try does not finish itself must end in the acquisition loop exactly
// as before the try existed. TryLock, which takes a free ticket in that
// loop, and Unlock's ticket-mode release are held to the same cases.

// ticketWords reads the ticket lock's next and owner words.
func ticketWords(l *Lock) (next, owner uint32) {
	words := (*[2]atomic.Uint32)(unsafe.Pointer(&l.ticket))
	return words[0].Load(), words[1].Load()
}

// TestFastPathOtherModesTakeTheirLock: a lock in mcs or mutex mode has a
// free ticket, and neither Lock nor TryLock takes it: both acquire the
// mode's own lock, and the ticket words never move.
func TestFastPathOtherModesTakeTheirLock(t *testing.T) {
	for _, m := range []Mode{ModeMCS, ModeMutex} {
		l := New(&Config{Monitor: newTestMonitor(), InitialMode: m, DisableAdaptation: true})
		for i := 0; i < 3; i++ {
			if i%2 == 0 {
				l.Lock()
			} else if !l.TryLock() {
				t.Fatalf("%v: TryLock on a free lock failed", m)
			}
			if q := lowQueueLens(l); q[m] != 1 || q[ModeTicket] != 0 {
				t.Fatalf("%v: holding, queues %v: want the %v lock held and the ticket free", m, q, m)
			}
			if l.TryLock() {
				t.Fatalf("%v: TryLock on a held lock succeeded", m)
			}
			l.Unlock()
		}
		if next, owner := ticketWords(l); next != 0 || owner != 0 {
			t.Fatalf("%v: ticket words moved to next=%d owner=%d", m, next, owner)
		}
		if skips := l.adapt.Load().ticketSkips.Load(); skips != 0 {
			t.Fatalf("%v: %d tickets taken and handed back", m, skips)
		}
		if got := l.Stats().Acquired; got != 3 {
			t.Fatalf("%v: Acquired = %d, want 3", m, got)
		}
	}
}

// TestFastPathAbandonedOwner freezes the instant inside an Unlock between
// its increment of owner and its drain, with owner resting on a ticket a
// departed waiter abandoned: TryLock must fail without writing, and Lock
// must queue behind the live waiter in LockCancel, not take the ticket the
// owner word names.
func TestFastPathAbandonedOwner(t *testing.T) {
	l := New(&Config{Monitor: newTestMonitor()})
	l.Lock() // ticket 0
	aborted := make(chan bool)
	abort := make(chan struct{})
	go func() { aborted <- l.LockCancel(&locks.Cancel{Done: abort}) }() // ticket 1
	waitTicketQueue(t, l, 2)
	// order is written by each holder inside its critical section.
	var order []int
	var done sync.WaitGroup
	done.Add(2)
	go func() { defer done.Done(); l.Lock(); order = append(order, 2); l.Unlock() }() // ticket 2
	// Ticket 2 is queued before ticket 1 is given up, so ticket 1 is
	// abandoned behind a live waiter rather than retired as the last one.
	waitTicketQueue(t, l, 3)
	close(abort)
	if <-aborted {
		t.Fatal("LockCancel acquired a held lock")
	}
	if l.ticket.Abandons() != 1 {
		t.Fatalf("Abandons = %d, want 1", l.ticket.Abandons())
	}

	// The holder's Unlock, first half: owner steps onto ticket 1.
	words := (*[2]atomic.Uint32)(unsafe.Pointer(&l.ticket))
	words[1].Add(1)
	if l.TryLock() {
		t.Fatal("TryLock took the lock while owner rests on an abandoned ticket")
	}
	if next, owner := ticketWords(l); next != 3 || owner != 1 {
		t.Fatalf("failed TryLock moved the words to next=%d owner=%d", next, owner)
	}
	go func() { defer done.Done(); l.Lock(); order = append(order, 3); l.Unlock() }()
	waitTicketQueue(t, l, 3)
	if next, _ := ticketWords(l); next != 4 {
		t.Fatalf("Lock did not queue: next = %d, want 4", next)
	}

	// Undo the half step and let the holder's whole Unlock run: it drains
	// ticket 1 and hands the lock to ticket 2, then ticket 3, in order.
	words[1].Add(^uint32(0))
	l.Unlock()
	done.Wait()
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Fatalf("acquired in order %v; want [2 3]", order)
	}
	if got := l.Stats().Acquired; got != 3 {
		t.Fatalf("Acquired = %d, want 3 (three holders, one abandoned ticket)", got)
	}
}

// waitTicketQueue waits until n goroutines hold or wait for l's ticket,
// failing the test if that has not happened within ten seconds.
func waitTicketQueue(t *testing.T, l *Lock, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); l.ticket.QueueLen() != n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("ticket queue length %d, want %d", l.ticket.QueueLen(), n)
		}
	}
}

// TestFastPathBoundarySwitchBacksOut: the try that lands on an adaptation
// boundary whose decision leaves ticket mode hands the ticket back
// (ticketSkips), acquires again under the new mode, and Acquired counts the
// acquisition once — for Lock and for TryLock alike.
func TestFastPathBoundarySwitchBacksOut(t *testing.T) {
	const period = 8
	for _, try := range []bool{false, true} {
		var moves []Mode
		l := New(&Config{Monitor: newTestMonitor(), SamplePeriod: period, AdaptPeriod: period,
			OnTransition: func(_, to Mode, _ string) { moves = append(moves, to) }})
		// A queue history well above upThreshold: the next decision is mcs
		// (0.25·1 + 0.75·5 = 4 > 3).
		l.state().queueEMA.Add(5)
		for i := 0; i < period-1; i++ {
			l.Lock()
			l.Unlock()
		}
		if try {
			if !l.TryLock() {
				t.Fatal("TryLock on a free lock failed")
			}
		} else {
			l.Lock()
		}
		if l.Mode() != ModeMCS || len(moves) != 1 {
			t.Fatalf("try=%v: mode %v after the boundary, transitions %v; want one, to mcs", try, l.Mode(), moves)
		}
		if q := lowQueueLens(l); q[ModeMCS] != 1 || q[ModeTicket] != 0 {
			t.Fatalf("try=%v: queues %v: want the mcs lock held and the ticket handed back", try, q)
		}
		if skips := l.adapt.Load().ticketSkips.Load(); skips != 1 {
			t.Fatalf("try=%v: ticketSkips = %d, want 1", try, skips)
		}
		l.Unlock()
		if got := l.Stats().Acquired; got != period {
			t.Fatalf("try=%v: Acquired = %d, want %d", try, got, period)
		}
	}
}

// TestFastPathUnlockOfFreeLockPanicsFirst: Unlock of a lock nobody holds
// panics with nothing written — in ticket mode after uncontended use, with
// telemetry, and in mcs mode.
func TestFastPathUnlockOfFreeLockPanicsFirst(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	cases := []struct {
		name string
		cfg  *Config
	}{
		{"ticket", &Config{Monitor: newTestMonitor()}},
		{"instrumented", &Config{Monitor: newTestMonitor(), Stats: reg.Register(1, "glk")}},
		{"mcs", &Config{Monitor: newTestMonitor(), InitialMode: ModeMCS, DisableAdaptation: true}},
	}
	for _, c := range cases {
		l := New(c.cfg)
		l.Lock()
		l.Unlock()
		if !l.TryLock() {
			t.Fatalf("%s: TryLock on a free lock failed", c.name)
		}
		l.Unlock()
		next, owner := ticketWords(l)
		stateBefore := l.adapt.Load()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Unlock of a free lock did not panic", c.name)
				}
			}()
			l.Unlock()
		}()
		if n, o := ticketWords(l); n != next || o != owner {
			t.Fatalf("%s: ticket words moved from %d/%d to %d/%d", c.name, next, owner, n, o)
		}
		if l.adapt.Load() != stateBefore {
			t.Fatalf("%s: the panicking Unlock built an adaptation state", c.name)
		}
		if got := l.Stats().Acquired; got != 2 {
			t.Fatalf("%s: Acquired = %d, want 2", c.name, got)
		}
		l.Lock() // still usable
		l.Unlock()
	}
}

// TestInstrumentedLockSkipsFastPath: a lock built with Config.Stats takes
// every acquisition through acquire's telemetry and every release through
// Release, so the telemetry counts stay exact: one arrival per attempt, one
// acquisition per success, one hold sample per release.
func TestInstrumentedLockSkipsFastPath(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	l := New(&Config{Monitor: sysmon.New(sysmon.Options{DisableProbes: true}), Stats: reg.Register(1, "glk")})
	const n = 300 // over two default sampling periods
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			l.Lock()
		} else if !l.TryLock() {
			t.Fatal("TryLock on a free lock failed")
		}
		if i%10 == 0 && l.TryLock() {
			t.Fatal("TryLock on a held lock succeeded")
		}
		l.Unlock()
	}
	s := reg.Snapshot().Lock(1)
	const fails = n / 10
	if s.Arrivals != n+fails || s.Acquisitions != n || s.TryFails != fails {
		t.Fatalf("arrivals %d, acquisitions %d, try failures %d; want %d, %d, %d",
			s.Arrivals, s.Acquisitions, s.TryFails, n+fails, n, fails)
	}
	var holds uint64
	for _, c := range s.HoldHist {
		holds += c
	}
	if holds != n {
		t.Fatalf("%d hold samples, want %d: a release skipped telemetry", holds, n)
	}
	if got := l.Stats().Acquired; got != n {
		t.Fatalf("Acquired = %d, want %d", got, n)
	}
}
