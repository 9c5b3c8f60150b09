package locks

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// expired returns a Cancel that has already fired by deadline.
func expired() *Cancel {
	return &Cancel{Deadline: time.Now().Add(-time.Millisecond)}
}

func shortDeadline(d time.Duration) *Cancel {
	return &Cancel{Deadline: time.Now().Add(d)}
}

func TestCancelNeverSemantics(t *testing.T) {
	var nilc *Cancel
	if !nilc.Never() || nilc.Aborted() {
		t.Fatal("nil Cancel must be inert")
	}
	if c := new(Cancel); !c.Never() || c.Aborted() {
		t.Fatal("zero Cancel must be inert")
	}
	c := &Cancel{Deadline: time.Now().Add(time.Hour)}
	if c.Never() || c.Aborted() {
		t.Fatal("future deadline: not Never, not yet Aborted")
	}
}

func TestCancelCauseLatching(t *testing.T) {
	c := expired()
	if !c.Aborted() || !c.TimedOut() {
		t.Fatal("expired deadline should latch a timeout cause")
	}
	done := make(chan struct{})
	close(done)
	c = &Cancel{Done: done}
	if !c.Aborted() || c.TimedOut() {
		t.Fatal("closed done channel should latch a cancel cause")
	}
	// Deadline is checked first: an expired deadline with a closed Done is
	// classified as a timeout, matching context.DeadlineExceeded.
	c = &Cancel{Done: done, Deadline: time.Now().Add(-time.Millisecond)}
	if !c.Aborted() || !c.TimedOut() {
		t.Fatal("expired deadline must win the cause even with Done closed")
	}
}

// TestLockWithCancelAllAlgorithms runs the shared contract over every
// algorithm: an uncontended cancellable acquisition succeeds even with a
// fired Cancel (grant beats abort at the probe), a contended one with a
// short deadline returns false without corrupting the lock, and the lock
// remains fully functional afterwards.
func TestLockWithCancelAllAlgorithms(t *testing.T) {
	for _, a := range Algorithms() {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			l := New(a)
			// Uncontended: acquire despite an already-fired Cancel.
			if !LockWithCancel(l, expired()) {
				t.Fatal("uncontended LockWithCancel failed")
			}
			// Contended from another goroutine: must abort.
			res := make(chan bool)
			go func() { res <- LockWithCancel(l, shortDeadline(10*time.Millisecond)) }()
			select {
			case got := <-res:
				if got {
					t.Fatal("acquired a held lock")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("aborting waiter did not return")
			}
			l.Unlock()
			// The lock must still work: exercise a few full cycles.
			for i := 0; i < 3; i++ {
				l.Lock()
				l.Unlock()
			}
			if !l.TryLock() {
				t.Fatal("TryLock on free lock failed after aborts")
			}
			l.Unlock()
		})
	}
}

// TestAbortedWaitersSuccessorAcquires pins the queue-repair property: with
// a cancellable waiter sandwiched between the holder and a patient waiter,
// the abort must not sever the patient waiter's path to the lock.
func TestAbortedWaitersSuccessorAcquires(t *testing.T) {
	for _, a := range []Algorithm{Ticket, MCS, Mutex} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			l := New(a)
			l.Lock()
			aborted := make(chan bool)
			go func() { aborted <- LockWithCancel(l, shortDeadline(20*time.Millisecond)) }()
			// Give the cancellable waiter time to enqueue, then queue a
			// patient waiter behind it.
			time.Sleep(5 * time.Millisecond)
			acquired := make(chan struct{})
			go func() {
				l.Lock()
				close(acquired)
			}()
			if got := <-aborted; got {
				t.Fatal("cancellable waiter acquired a held lock")
			}
			l.Unlock()
			select {
			case <-acquired:
			case <-time.After(5 * time.Second):
				t.Fatal("successor of an aborted waiter never acquired")
			}
			l.Unlock()
		})
	}
}

// TestLockCancelMutualExclusionSoak races cancellable acquisitions, plain
// acquisitions and releases; the protected counter detects any mutual-
// exclusion violation (run under -race for the full effect).
func TestLockCancelMutualExclusionSoak(t *testing.T) {
	for _, a := range []Algorithm{TAS, Ticket, MCS, Mutex} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			l := New(a)
			const workers = 8
			iters := 300
			if testing.Short() {
				iters = 60
			}
			var inSection atomic.Int32
			var acquired atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						var ok bool
						switch {
						case w%2 == 0:
							// Tiny, often-expiring deadlines: exercises the
							// abort paths against live handoffs.
							ok = LockWithCancel(l, shortDeadline(time.Duration(i%3)*50*time.Microsecond))
						default:
							l.Lock()
							ok = true
						}
						if !ok {
							continue
						}
						if n := inSection.Add(1); n != 1 {
							t.Errorf("mutual exclusion violated: %d in section", n)
						}
						inSection.Add(-1)
						acquired.Add(1)
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			if !l.TryLock() {
				t.Fatal("lock wedged after soak")
			}
			l.Unlock()
			if acquired.Load() == 0 {
				t.Fatal("soak acquired nothing")
			}
		})
	}
}

// TestTicketRetire pins the no-trace abort: the sole waiter gives its
// ticket back via the next-counter CAS and the abandonment table is never
// created.
func TestTicketRetire(t *testing.T) {
	l := NewTicket()
	l.Lock()
	res := make(chan bool)
	go func() { res <- l.LockCancel(shortDeadline(10 * time.Millisecond)) }()
	if <-res {
		t.Fatal("acquired a held lock")
	}
	if got := l.Abandons(); got != 0 {
		t.Fatalf("Abandons = %d, want 0 (ticket should retire, not abandon)", got)
	}
	if got := l.QueueLen(); got != 1 {
		t.Fatalf("QueueLen = %d, want 1 (holder only)", got)
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("lock not free after retire + unlock")
	}
	l.Unlock()
}

// TestTicketAbandonAndDrain forces the abandonment path (a waiter queued
// behind the aborter blocks the retire CAS) and checks the owner counter
// steps over the dead ticket.
func TestTicketAbandonAndDrain(t *testing.T) {
	l := NewTicket()
	l.Lock()
	aborted := make(chan bool)
	go func() { aborted <- l.LockCancel(shortDeadline(20 * time.Millisecond)) }()
	time.Sleep(5 * time.Millisecond) // let the aborter take its ticket
	acquired := make(chan struct{})
	go func() {
		l.Lock()
		close(acquired)
	}()
	// Wait until the patient waiter holds a later ticket, pinning the
	// aborter's retire CAS into failure.
	for l.QueueLen() < 3 {
		time.Sleep(time.Millisecond)
	}
	if <-aborted {
		t.Fatal("cancellable waiter acquired a held lock")
	}
	if got := l.Abandons(); got != 1 {
		t.Fatalf("Abandons = %d, want 1", got)
	}
	l.Unlock()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not step over the abandoned ticket")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("lock not free after drain")
	}
	l.Unlock()
}

// TestMutexCancelParked aborts a fully-parked mutex waiter (past the spin
// phase) and checks the queue bookkeeping is restored.
func TestMutexCancelParked(t *testing.T) {
	l := NewMutex()
	l.Lock()
	res := make(chan bool)
	go func() { res <- l.LockCancel(shortDeadline(30 * time.Millisecond)) }()
	if <-res {
		t.Fatal("acquired a held lock")
	}
	if got := l.QueueLen(); got != 1 {
		t.Fatalf("QueueLen = %d, want 1 (holder only) after parked abort", got)
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("lock not free after parked abort")
	}
	l.Unlock()
}

// TestMutexCancelWakeRace hammers the in-flight-wake window: holders
// unlock at the same moment parked waiters' deadlines fire. Whoever
// receives the handoff must own the lock (grant beats abort), and the
// queue must stay consistent.
func TestMutexCancelWakeRace(t *testing.T) {
	l := NewMutex()
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for i := 0; i < iters; i++ {
		l.Lock()
		res := make(chan bool)
		go func() { res <- l.LockCancel(shortDeadline(time.Duration(i%5) * 100 * time.Microsecond)) }()
		time.Sleep(time.Duration(i%7) * 50 * time.Microsecond)
		l.Unlock()
		if <-res {
			// The waiter won the race and owns the lock.
			l.Unlock()
		} else {
			// The waiter departed; the lock must be (or become) free.
			l.Lock()
			l.Unlock()
		}
	}
	if !l.TryLock() {
		t.Fatal("lock wedged after wake races")
	}
	l.Unlock()
}
