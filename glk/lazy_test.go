package glk

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gls/locks"
)

// TestUncontendedLockBuildsNoState: a lock nobody ever waits for goes
// through ten sampling periods — two adaptation periods and a half — without
// an adaptation state, and its Stats read exactly as those of a lock that
// recorded every one of those samples: the same lock with the state forced
// from the start, driven through the same operations.
func TestUncontendedLockBuildsNoState(t *testing.T) {
	const period, periods = 16, 10
	cfg := &Config{Monitor: newTestMonitor(), SamplePeriod: period, AdaptPeriod: 4 * period}
	lazy, eager := New(cfg), New(cfg)
	eager.state()
	for i := 0; i < period*periods; i++ {
		for _, l := range []*Lock{lazy, eager} {
			if i%3 == 0 {
				if !l.TryLock() {
					t.Fatal("TryLock on a free lock failed")
				}
			} else {
				l.Lock()
			}
			l.Unlock()
		}
		if lazy.adapt.Load() != nil {
			t.Fatalf("uncontended lock built its adaptation state at acquisition %d", i+1)
		}
		if got, want := lazy.Stats(), eager.Stats(); got != want {
			t.Fatalf("after %d acquisitions the stateless lock reads %+v, the recording one %+v", i+1, got, want)
		}
	}
	want := Stats{Mode: ModeTicket, Acquired: period * periods, QueueTotal: periods, QueueEMA: 1}
	if got := lazy.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

// TestLateStateContinuesHistory: a state built after some boundaries were
// skipped takes them up — their samples, and their place in the adaptation
// period — whoever builds it: here a waiter that gives up, mid-period, so
// the next boundary primes a state it did not build.
func TestLateStateContinuesHistory(t *testing.T) {
	const period = 8
	l := New(&Config{Monitor: newTestMonitor(), SamplePeriod: period, AdaptPeriod: 4 * period})
	for i := 0; i < 5*period+3; i++ { // five boundaries: one adaptation period and one sample
		l.Lock()
		l.Unlock()
	}
	l.Lock()
	if l.LockCancel(deadlineIn(time.Millisecond)) {
		t.Fatal("LockCancel acquired a held lock")
	}
	l.Unlock()
	st := l.adapt.Load()
	if st == nil {
		t.Fatal("an abandoned acquisition left no adaptation state to count it in")
	}
	if got := l.Stats(); got.Aborts != 1 || got.QueueTotal != 5 || got.QueueEMA != 1 || got.Acquired != 5*period+4 {
		t.Fatalf("Stats before the state's first boundary = %+v, want 1 abort, 5 samples of 1, %d acquisitions", got, 5*period+4)
	}
	for i := 0; i < period-4; i++ { // up to and including the sixth boundary
		l.Lock()
		l.Unlock()
	}
	if !st.primed {
		t.Fatal("the boundary after the state was built did not prime it")
	}
	// Sample six is the holder alone plus the departed waiter the abort
	// counter reports: 2; it is the second of its adaptation period.
	if got := l.Stats(); got.QueueTotal != 5+2 || got.Acquired != 6*period {
		t.Fatalf("Stats after the sixth boundary = %+v, want QueueTotal 7, Acquired %d", got, 6*period)
	}
	if st.adaptIn != 2 {
		t.Fatalf("adaptIn = %d after six boundaries of periods of four, want 2", st.adaptIn)
	}
}

// TestContendedLockPublishesOneState: eight goroutines at the lock from its
// first operation — blocking, trying, and giving up — race to build the
// adaptation state. Exactly one is ever published, and nothing counted in
// it is lost to a loser's copy: aborts, transitions and the acquisition
// count (which takes back every ticket pass that ended no critical section)
// are exact from their first event. Run under -race in CI.
func TestContendedLockPublishesOneState(t *testing.T) {
	const workers, ops = 8, 4000
	var transitions atomic.Uint64
	l := New(&Config{
		Monitor: newTestMonitor(), SamplePeriod: 2, AdaptPeriod: 4,
		OnTransition: func(from, to Mode, reason string) { transitions.Add(1) },
	})
	var acquired, aborted atomic.Uint64
	seen := make([]*adaptState, workers)
	inCS := 0 // plain: the lock is what orders it
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < ops; i++ {
				ok := true
				switch (w + i) % 3 {
				case 0:
					l.Lock()
				case 1:
					ok = l.TryLock()
				default:
					ok = l.LockCancel(&locks.Cancel{Deadline: time.Now().Add(20 * time.Microsecond)})
					if !ok {
						aborted.Add(1)
					}
				}
				if ok {
					if inCS++; inCS != 1 {
						t.Errorf("%d goroutines in the critical section", inCS)
					}
					inCS--
					acquired.Add(1)
					l.Unlock()
				}
				if st := l.adapt.Load(); st != nil {
					if seen[w] == nil {
						seen[w] = st
					} else if seen[w] != st {
						t.Errorf("worker %d saw a second adaptation state", w)
						return
					}
				}
			}
		}(w)
	}
	// Hold the lock until the three workers that open with Lock are queued
	// behind it, so the first sampling boundary has a queue to see however
	// the scheduler staggers the rest.
	l.Lock()
	acquired.Add(1)
	close(start)
	for l.ticket.QueueLen() < 4 {
		runtime.Gosched()
	}
	l.Unlock()
	wg.Wait()

	st := l.adapt.Load()
	if st == nil {
		t.Fatal("eight contending goroutines built no adaptation state")
	}
	for w, s := range seen {
		if s != nil && s != st {
			t.Errorf("worker %d saw state %p, the lock ends with %p", w, s, st)
		}
	}
	got := l.Stats()
	if got.Acquired != acquired.Load() {
		t.Errorf("Acquired = %d, %d critical sections ran (ticket skips %d, abandons %d)",
			got.Acquired, acquired.Load(), st.ticketSkips.Load(), l.ticket.Abandons())
	}
	if got.Aborts != aborted.Load() {
		t.Errorf("Aborts = %d, %d acquisitions were abandoned", got.Aborts, aborted.Load())
	}
	if got.Transitions != transitions.Load() {
		t.Errorf("Transitions = %d, OnTransition ran %d times", got.Transitions, transitions.Load())
	}
	if n := presentSum(l); n != 0 {
		t.Errorf("presence counter reads %d at rest", n)
	}
}
