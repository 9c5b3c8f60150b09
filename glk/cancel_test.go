package glk

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gls/locks"
	"gls/telemetry"
)

func expiredCancel() *locks.Cancel {
	return &locks.Cancel{Deadline: time.Now().Add(-time.Millisecond)}
}

func deadlineIn(d time.Duration) *locks.Cancel {
	return &locks.Cancel{Deadline: time.Now().Add(d)}
}

// TestLockCancelGLK covers the adaptive lock's contract: grant beats abort
// when uncontended, a contended waiter departs within its deadline, the
// departure is counted, and the lock stays functional.
func TestLockCancelGLK(t *testing.T) {
	l := New(&Config{Monitor: newTestMonitor()})
	if !l.LockCancel(expiredCancel()) {
		t.Fatal("uncontended LockCancel failed")
	}
	res := make(chan bool)
	go func() { res <- l.LockCancel(deadlineIn(10 * time.Millisecond)) }()
	select {
	case got := <-res:
		if got {
			t.Fatal("acquired a held lock")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("aborting waiter never returned")
	}
	if l.Aborts() != 1 {
		t.Fatalf("Aborts = %d, want 1", l.Aborts())
	}
	l.Unlock()
	l.Lock()
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("lock not free after aborts")
	}
	l.Unlock()
}

// TestAbortsFeedAdaptation pins the new contention signal: a burst of
// aborted waiters, folded into the sampled queue at the next boundary, must
// push a quiet ticket lock over the up-threshold into mcs — timed-out
// waiters are pressure the presence count alone no longer shows once they
// leave.
func TestAbortsFeedAdaptation(t *testing.T) {
	l := New(&Config{
		SamplePeriod: 1, AdaptPeriod: 2,
		UpThreshold: 4, DownThreshold: 1, EMAWeight: 1,
		Monitor: newTestMonitor(),
	})
	if got := l.Mode(); got != ModeTicket {
		t.Fatalf("fresh lock in %v, want ticket", got)
	}
	l.Lock()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.LockCancel(deadlineIn(time.Millisecond))
		}()
	}
	wg.Wait()
	if l.Aborts() == 0 {
		t.Fatal("no aborts recorded")
	}
	l.Unlock()
	// Walk the sampling boundaries: the abort delta is folded into the
	// first sampled queue after the burst, and EMAWeight=1 adopts it.
	for i := 0; i < 8 && Mode(l.lockType.Load()) == ModeTicket; i++ {
		l.Lock()
		l.Unlock()
	}
	if got := l.Mode(); got != ModeMCS {
		t.Fatalf("mode after abort burst = %v, want mcs (aborts did not feed adaptation)", got)
	}
	abortsCountOnce(t)
}

// abortsCountOnce pins how the abort delta meets the ticket-distance
// sample (TestAbortsFeedAdaptation's second half). Abandoned tickets stay in next − owner until the
// owner word steps over them, so a sample taken behind them sees the same
// departures twice — once queued, once in the delta. The signal is the
// larger of the two, never the sum: with K waiters gone, however they split
// between retired and abandoned tickets, the sample reads 1 + K.
func abortsCountOnce(t *testing.T) {
	const k = 6
	l := New(&Config{SamplePeriod: 1, AdaptPeriod: 1, DisableAdaptation: true, Monitor: newTestMonitor()})
	l.Lock() // sample 1: the holder alone
	// A plain waiter first, so the aborters queue behind a live ticket and
	// the next holder samples with theirs still ahead of owner.
	acquired := make(chan struct{})
	release := make(chan struct{})
	go func() {
		l.Lock() // sample 2, taken behind the abandoned tickets
		close(acquired)
		<-release
		l.Unlock()
	}()
	for l.ticket.QueueLen() != 2 {
		runtime.Gosched()
	}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if l.LockCancel(deadlineIn(time.Millisecond)) {
				t.Error("LockCancel acquired a held lock")
			}
		}()
	}
	wg.Wait()
	if got := l.Aborts(); got != k {
		t.Fatalf("Aborts = %d, want %d", got, k)
	}
	pending := l.ticket.QueueLen() - 2 // abandoned, not yet stepped over
	l.Unlock()
	<-acquired
	if got, want := l.Stats().QueueTotal, uint64(1+1+k); got != want {
		t.Fatalf("QueueTotal = %d after a sample behind %d abandoned tickets and %d aborts, want %d (holder sample 1 + abort sample 1+%d)",
			got, pending, k, want, k)
	}
	close(release)
	l.Lock()
	l.Unlock()
	if q := l.ticket.QueueLen(); q != 0 {
		t.Fatalf("ticket queue reads %d at rest", q)
	}
}

// mcsSpell drives a quiet ticket-mode lock into mcs and back with nothing
// but its own goroutine: a burst of already-expired LockCancels against the
// held lock (each retires its ticket at once) is the contention signal, and
// uncontended use afterwards decays the average again. The lock's
// thresholds must put 1+16 aborts above Up and a lone holder below Down.
func mcsSpell(t *testing.T, l *Lock) {
	t.Helper()
	l.Lock()
	for i := 0; i < 16; i++ {
		if l.LockCancel(expiredCancel()) {
			t.Fatal("LockCancel acquired a held lock")
		}
	}
	l.Unlock()
	for i := 0; i < 8 && l.Mode() == ModeTicket; i++ {
		l.Lock()
		l.Unlock()
	}
	if got := l.Mode(); got != ModeMCS {
		t.Fatalf("mode after abort burst = %v, want mcs", got)
	}
	if !l.PresenceInflated() {
		t.Fatal("lock left ticket mode without its presence spill")
	}
	for i := 0; i < 64 && l.Mode() != ModeTicket; i++ {
		l.Lock()
		if n := presentSum(l); l.Mode() == ModeMCS && n != 1 {
			t.Fatalf("presence counter reads %d with a lone mcs-mode holder, want 1", n)
		}
		l.Unlock()
	}
	if got := l.Mode(); got != ModeTicket {
		t.Fatalf("mode after contention ceased = %v, want ticket", got)
	}
}

// TestAbortVsAdaptationRaceSoak races cancellable waiters (tiny, often-
// expiring deadlines) against plain acquisitions on a lock adapting as fast
// as it can, across every family boundary. Mutual exclusion is asserted on
// every grant; the lock must end functional in whatever mode it settled.
// Run with -race: the soak exists to let the detector see an abort on
// family A interleave with the handoff and the ticket→mcs transition.
func TestAbortVsAdaptationRaceSoak(t *testing.T) {
	l := New(&Config{
		SamplePeriod: 1, AdaptPeriod: 2,
		UpThreshold: 2, DownThreshold: 1, EMAWeight: 0.9,
		Monitor: newTestMonitor(),
	})
	const workers = 8
	iters := 400
	if testing.Short() {
		iters = 80
	}
	var inSection atomic.Int32
	var granted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var ok bool
				if w%2 == 0 {
					ok = l.LockCancel(deadlineIn(time.Duration(i%3) * 50 * time.Microsecond))
				} else {
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
				granted.Add(1)
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if granted.Load() == 0 {
		t.Fatal("soak granted nothing")
	}
	if !l.TryLock() {
		t.Fatal("lock wedged after abort-vs-adaptation soak")
	}
	l.Unlock()
}

// TestLockCancelInstrumented checks the telemetry discipline on the
// adaptive lock: every bounded arrival resolves to exactly one of acquired
// or aborted, aborts land in the failed lane once, and the cause counters
// split them.
func TestLockCancelInstrumented(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	st := reg.Register(1, "glk")
	l := New(&Config{Monitor: newTestMonitor(), Stats: st})
	l.Lock()
	done := make(chan struct{})
	close(done)
	if l.LockCancel(&locks.Cancel{Done: done, Deadline: time.Now().Add(time.Hour)}) {
		t.Fatal("acquired a held lock")
	}
	if l.LockCancel(deadlineIn(5 * time.Millisecond)) {
		t.Fatal("acquired a held lock")
	}
	l.Unlock()
	if !l.LockCancel(deadlineIn(time.Hour)) {
		t.Fatal("free lock not acquired")
	}
	l.Unlock()
	snap := reg.Snapshot()
	if len(snap.Locks) != 1 {
		t.Fatalf("want 1 lock in snapshot, got %d", len(snap.Locks))
	}
	ls := snap.Locks[0]
	if ls.Timeouts != 1 || ls.Cancels != 1 {
		t.Fatalf("timeouts/cancels = %d/%d, want 1/1", ls.Timeouts, ls.Cancels)
	}
	if ls.TryFails != ls.Timeouts+ls.Cancels {
		t.Fatalf("failed lane %d != timeouts+cancels %d (aborts must count exactly once)",
			ls.TryFails, ls.Timeouts+ls.Cancels)
	}
	// Four arrivals: the setup Lock, two aborted waits, one bounded grant.
	if ls.Arrivals != 4 || ls.Acquisitions != 2 {
		t.Fatalf("arrivals/acquisitions = %d/%d, want 4/2", ls.Arrivals, ls.Acquisitions)
	}
}

// TestRWLockCancel covers both sides of the adaptive RW lock's bounded
// acquisition: abort behind a holder, acquire when free, clean state after.
func TestRWLockCancel(t *testing.T) {
	l := NewRW(&RWConfig{Monitor: newTestMonitor()})
	l.Lock()
	res := make(chan bool)
	go func() { res <- l.RLockCancel(deadlineIn(10 * time.Millisecond)) }()
	if <-res {
		t.Fatal("read share granted while a writer held")
	}
	go func() { res <- l.LockCancel(deadlineIn(10 * time.Millisecond)) }()
	if <-res {
		t.Fatal("write lock granted while held")
	}
	l.Unlock()
	if !l.RLockCancel(expiredCancel()) {
		t.Fatal("uncontended RLockCancel failed")
	}
	l.RUnlock()
	if !l.LockCancel(expiredCancel()) {
		t.Fatal("uncontended LockCancel failed")
	}
	l.Unlock()
	l.RLock()
	l.RUnlock()
}

// TestPresenceSettlesAcrossTransitions runs the presence rule through every
// hand-over it has: goroutines mixing Lock, TryLock and LockCancel — some
// counted under mcs or mutex, some not counted under ticket, some caught
// mid-wait by a switch — on a lock that re-decides every other acquisition,
// while the test's monitor raises and drops the multiprogramming flag
// between storms so the lock goes ticket → mcs → mutex → ticket each round.
// Mutual exclusion holds throughout; whenever the lock is at rest every
// count has been repaid, every queue is empty, and Acquired is exact.
func TestPresenceSettlesAcrossTransitions(t *testing.T) {
	mon := newTestMonitor()
	mon.Start()
	defer mon.Stop()
	var visited [ModeMutex + 1]atomic.Bool
	l := New(&Config{
		SamplePeriod: 1, AdaptPeriod: 2,
		UpThreshold: 2, DownThreshold: 1.2, EMAWeight: 0.5,
		Monitor:      mon,
		OnTransition: func(_, to Mode, _ string) { visited[to].Store(true) },
	})
	const workers = 6
	rounds, iters := 3, 1500
	if testing.Short() {
		rounds, iters = 2, 500
	}
	var inSection atomic.Int32
	var granted atomic.Uint64
	section := func(i int) {
		if n := inSection.Add(1); n != 1 {
			t.Errorf("mutual exclusion violated: %d in section", n)
		}
		if i%8 == 0 {
			runtime.Gosched() // let arrivals pile up behind the holder
		}
		inSection.Add(-1)
		granted.Add(1)
		l.Unlock()
	}
	setFlag := func(want bool) {
		t.Helper()
		hint := 0
		if want {
			hint = workers + runtime.GOMAXPROCS(0)
		}
		mon.SetHint(hint)
		for deadline := time.Now().Add(20 * time.Second); mon.Multiprogrammed() != want; {
			if time.Now().After(deadline) {
				t.Fatalf("monitor flag never became %v", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	storm := func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					var ok bool
					switch (w + i) % 3 {
					case 0:
						l.Lock()
						ok = true
					case 1:
						ok = l.TryLock()
					case 2:
						ok = l.LockCancel(deadlineIn(time.Duration(i%3) * 50 * time.Microsecond))
					}
					if ok {
						section(i)
					}
				}
			}()
		}
		wg.Wait()
	}
	atRest := func(when string) {
		t.Helper()
		if n := presentSum(l); n != 0 {
			t.Fatalf("%s: presence counter reads %d at rest", when, n)
		}
		if q := l.presentNow(); q != 0 {
			t.Fatalf("%s: presence gauge reads %d at rest (mode %v)", when, q, l.Mode())
		}
		for _, m := range []Mode{ModeTicket, ModeMCS, ModeMutex} {
			if q := l.queueLenLow(m); q != 0 {
				t.Fatalf("%s: %v queue reads %d at rest", when, m, q)
			}
		}
		if got, want := l.Stats().Acquired, granted.Load(); got != want {
			t.Fatalf("%s: Acquired = %d, want %d (%d transitions, %d aborts)", when, got, want, l.Transitions(), l.Aborts())
		}
	}
	for r := 0; r < rounds; r++ {
		setFlag(false)
		storm() // contention alone: mcs
		atRest("after the calm storm")
		setFlag(true)
		storm() // contention under multiprogramming: mutex
		atRest("after the multiprogrammed storm")
		setFlag(false)
		for i := 0; i < 10000 && l.Mode() != ModeTicket; i++ {
			l.Lock() // a lone goroutine: back to ticket
			section(1)
		}
		atRest("after the quiet spell")
	}
	for _, m := range []Mode{ModeTicket, ModeMCS, ModeMutex} {
		if !visited[m].Load() {
			t.Errorf("the run never entered %v mode (%d transitions)", m, l.Transitions())
		}
	}
	if !l.TryLock() {
		t.Fatal("lock wedged after the run")
	}
	l.Unlock()
}
