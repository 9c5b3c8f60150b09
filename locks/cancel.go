package locks

import (
	"time"

	"gls/internal/backoff"
)

// Cancel carries the abort conditions for one cancellable acquisition: an
// optional done channel (context-style cancellation) and an optional
// absolute deadline. The zero value — and a nil *Cancel — never fires: the
// Lock of Ticket, MCS and Mutex is their LockCancel with a nil Cancel.
//
// A Cancel belongs to one acquisition on one goroutine (a glsd wait, a
// LockCtx or TryLockFor call); it is not safe for concurrent use (like
// backoff.Spinner, it is cheap per-call state). After Aborted first
// reports true, the cause is latched — a fired Cancel stays fired — and
// TimedOut reports which condition fired — the telemetry layer uses it to
// split aborts into timeout and cancel lanes.
type Cancel struct {
	// Done aborts the acquisition when it becomes receivable (normally a
	// context's Done channel). A nil Done never fires.
	Done <-chan struct{}
	// Deadline aborts the acquisition once time.Now reaches it. The zero
	// time means no deadline.
	Deadline time.Time

	cause uint8
}

const (
	causeNone uint8 = iota
	causeTimeout
	causeCancel
)

// Never reports whether c can never fire — in which case cancellable
// acquisition paths take the plain blocking path: LockWithCancel calls
// Lock, and a parked mutex waiter starts no timer.
func (c *Cancel) Never() bool {
	return c == nil || (c.Done == nil && c.Deadline.IsZero())
}

// Aborted polls the abort conditions without blocking. Once it returns true
// it keeps returning true. The deadline is checked before the done channel
// so that a context whose own deadline expired (closing Done as a side
// effect) is classified as a timeout, matching context.DeadlineExceeded.
func (c *Cancel) Aborted() bool {
	if c == nil {
		return false
	}
	if c.cause != causeNone {
		return true
	}
	if !c.Deadline.IsZero() && !time.Now().Before(c.Deadline) {
		c.cause = causeTimeout
		return true
	}
	if c.Done != nil {
		select {
		case <-c.Done:
			c.cause = causeCancel
			return true
		default:
		}
	}
	return false
}

// TimedOut reports whether the latched abort cause was the deadline (true)
// rather than the done channel (false). Meaningful only after Aborted has
// returned true.
func (c *Cancel) TimedOut() bool { return c.cause == causeTimeout }

// CancelableLock is the capability interface for exclusive locks that can
// abandon an in-progress acquisition. Ticket, MCS, Mutex and glk.Lock
// implement it natively; the rest are served by LockWithCancel's polling
// fallback.
type CancelableLock interface {
	Lock
	// LockCancel acquires the lock, abandoning the attempt when c fires.
	// It returns true when the lock was acquired — including when the
	// grant raced the abort: an acquisition that completes before the
	// abort takes effect wins, even if c has fired by the time LockCancel
	// returns (the x/sync/semaphore convention). On false the lock is not
	// held and the algorithm's queue state is fully cleaned up.
	LockCancel(c *Cancel) bool
}

// LockWithCancel acquires l, abandoning the attempt when c fires, and
// reports whether the lock was acquired. Locks implementing CancelableLock
// abort natively (a queued waiter departs without waiting for its turn);
// for the rest — TAS, TTAS and CLH — it polls TryLock, which never enqueues
// and so is trivially abortable. For TAS and TTAS that is their Lock loop
// anyway; CLH loses FIFO admission while a Cancel is in play.
func LockWithCancel(l Lock, c *Cancel) bool {
	if c.Never() {
		l.Lock()
		return true
	}
	if cl, ok := l.(CancelableLock); ok {
		return cl.LockCancel(c)
	}
	return PollAcquire(l.TryLock, c)
}

// PollAcquire is the generic abortable acquisition: probe with try, check
// c's abort conditions, back off, repeat. It reports whether try succeeded.
// The probe runs before the abort check so a free lock is taken even when c
// has already fired (grant beats abort); callers wanting fail-fast on a dead
// context check c before calling. Lock implementations outside this package
// whose abort path is a try-loop (glk's reader-writer lock) call it too.
func PollAcquire(try func() bool, c *Cancel) bool {
	var s backoff.Spinner
	for {
		if try() {
			return true
		}
		if c.Aborted() {
			return false
		}
		s.Spin()
	}
}
