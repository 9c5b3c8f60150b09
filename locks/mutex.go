package locks

import (
	"sync/atomic"
	"time"

	"gls/internal/backoff"
	"gls/internal/pad"
)

// spinBeforePark is how many acquisition attempts a MutexLock makes before
// parking. "Because the overheads of the OS for blocking and unblocking a
// thread are high, blocking locks typically employ a busy-waiting period
// before putting threads to sleep" (paper §2).
const spinBeforePark = 32

// mutexWaiter is one parked goroutine. The buffered channel lets the
// releaser signal without blocking.
type mutexWaiter struct {
	wake chan struct{}
	next *mutexWaiter
}

// MutexLock is the blocking lock GLK uses under multiprogramming. It is the
// paper's re-implemented MUTEX: "more lightweight than the one in the
// pthread library, as it does not include the various sanity checks of the
// latter" — those checks live in GLS debug mode instead (paper §3).
//
// Acquisition spins briefly, then parks the goroutine on a FIFO waiter
// queue; release hands the lock directly to the head waiter. Parking
// releases the processor to the Go scheduler the same way a futex wait
// releases a hardware context to the OS.
type MutexLock struct {
	state atomic.Uint32 // 0 free, 1 held
	nwait atomic.Int32  // parked + about-to-park waiters, for QueueLen
	qlock TASLock       // guards head/tail
	head  *mutexWaiter
	tail  *mutexWaiter
	// 4+4 (counters) + 64 (qlock) + 8+8 (queue) = 88 bytes; pad to 2 lines.
	_ [2*pad.CacheLineSize - 88]byte
}

var (
	_ Lock           = (*MutexLock)(nil)
	_ CancelableLock = (*MutexLock)(nil)
)

// NewMutex returns an unlocked blocking lock.
func NewMutex() *MutexLock { return new(MutexLock) }

// Lock acquires l, parking the goroutine if a short spin phase fails:
// LockCancel with a Cancel that never fires.
func (l *MutexLock) Lock() { l.LockCancel(nil) }

// LockCancel acquires l, parking the goroutine if a short spin phase fails,
// and abandons the attempt when c fires. Unlike the spinlocks, a parked
// mutex waiter does not poll: it blocks on a select of its wake channel,
// the done channel and a deadline timer, so an aborted wait costs no CPU —
// and a wait that can never abort parks on its wake channel alone, starting
// no timer. On abort the waiter unlinks itself from the queue under qlock;
// if an Unlock dequeued it first, the handoff is already in flight and the
// lock is ours (grant beats abort).
func (l *MutexLock) LockCancel(c *Cancel) bool {
	// Busy-waiting phase, with abort polling: nothing is enqueued yet, so
	// giving up here is free.
	for i := 0; i < spinBeforePark; i++ {
		if l.state.CompareAndSwap(0, 1) {
			return true
		}
		if c.Aborted() {
			return false
		}
		if i >= spinBeforePark/2 {
			backoff.Yield()
		} else {
			backoff.Pause(1 << uint(i%6))
		}
	}
	// Parking phase.
	w := &mutexWaiter{wake: make(chan struct{}, 1)}
	l.nwait.Add(1)
	l.qlock.Lock()
	// Re-check under the queue lock so an Unlock that ran during the spin
	// phase cannot strand us: either we get the lock here, or we are on the
	// queue before any future Unlock scans it.
	if l.state.CompareAndSwap(0, 1) {
		l.qlock.Unlock()
		l.nwait.Add(-1)
		return true
	}
	if l.tail == nil {
		l.head = w
	} else {
		l.tail.next = w
	}
	l.tail = w
	l.qlock.Unlock()

	if !c.Never() {
		var timeC <-chan time.Time
		if !c.Deadline.IsZero() {
			d := time.Until(c.Deadline)
			if d < 0 {
				d = 0
			}
			timer := time.NewTimer(d)
			defer timer.Stop()
			timeC = timer.C
		}
		select {
		case <-w.wake:
			l.nwait.Add(-1)
			return true
		case <-c.Done: // nil when no done channel: never fires
			// Deadline-first, matching Cancel.Aborted: a context's own timer
			// closes Done at the deadline, and select picks randomly between
			// two ready cases — without this check that race would
			// misclassify a timeout as a cancellation.
			if !c.Deadline.IsZero() && !time.Now().Before(c.Deadline) {
				c.cause = causeTimeout
			} else {
				c.cause = causeCancel
			}
		case <-timeC:
			c.cause = causeTimeout
		}
		// Aborted while parked. If we are still queued, unlink and depart;
		// an empty removal means an Unlock already dequeued us and its wake
		// is in flight — receive it below and keep the lock.
		l.qlock.Lock()
		if l.removeWaiter(w) {
			l.qlock.Unlock()
			l.nwait.Add(-1)
			return false
		}
		l.qlock.Unlock()
	}
	<-w.wake
	// Direct handoff: the releaser left state == 1 on our behalf.
	l.nwait.Add(-1)
	return true
}

// removeWaiter unlinks w from the FIFO queue, reporting whether it was
// still queued. Caller holds qlock.
func (l *MutexLock) removeWaiter(w *mutexWaiter) bool {
	var prev *mutexWaiter
	for cur := l.head; cur != nil; prev, cur = cur, cur.next {
		if cur != w {
			continue
		}
		if prev == nil {
			l.head = cur.next
		} else {
			prev.next = cur.next
		}
		if l.tail == cur {
			l.tail = prev
		}
		return true
	}
	return false
}

// TryLock attempts a single atomic acquisition.
func (l *MutexLock) TryLock() bool {
	return l.state.CompareAndSwap(0, 1)
}

// Unlock releases l, waking the longest-waiting goroutine if any.
func (l *MutexLock) Unlock() {
	l.qlock.Lock()
	w := l.head
	if w != nil {
		l.head = w.next
		if l.head == nil {
			l.tail = nil
		}
		l.qlock.Unlock()
		// Ownership passes directly: state stays 1.
		w.wake <- struct{}{}
		return
	}
	l.state.Store(0)
	l.qlock.Unlock()
}

// QueueLen returns the number of goroutines at the lock (parked waiters plus
// the holder), zero when free.
func (l *MutexLock) QueueLen() int {
	n := int(l.nwait.Load())
	if l.state.Load() != 0 {
		n++
	}
	if n < 0 {
		return 0
	}
	return n
}

// Locked reports whether the lock is currently held (racy; diagnostics only).
func (l *MutexLock) Locked() bool { return l.state.Load() != 0 }
