package glk

import (
	"gls/internal/stripe"
	"gls/locks"
	"gls/telemetry"
)

var _ locks.CancelableLock = (*Lock)(nil)

// LockCancel acquires l, abandoning the attempt when c fires, and reports
// whether the lock was acquired. Its loop is paper Figure 4, and it is one
// of glk.Lock's two acquisition loops: this plain one, which Lock waits in
// with a nil Cancel when its try does not finish the acquisition, and
// acquireInstrumented, which every entry point of a lock built with Stats
// runs. Telemetry is chosen here, once, at the loop's entry; a Cancel that
// never fires waits exactly as Lock does.
//
// Abort composes with adaptation (DESIGN.md §11): the Cancel is only ever
// armed against one low-level family at a time. If the wait on family A
// succeeds but the mode moved meanwhile, the acquisition releases A
// completely before retrying on family B — so a waiter that gives up
// mid-transition has, by construction, either never enqueued on B or fully
// released A, and both queues stay clean. A latched Cancel aborts the retry
// immediately, after the release.
func (l *Lock) LockCancel(c *locks.Cancel) bool {
	if l.stats != nil {
		return l.acquireInstrumented(true, c)
	}
	var a arrival
	for {
		cur := Mode(l.lockType.Load())
		l.count(cur, &a)
		if !l.lockLow(cur, c) {
			l.abortDepart(&a)
			return false
		}
		// Re-check the mode: another holder may have adapted while we
		// waited on the (now stale) low-level lock.
		if Mode(l.lockType.Load()) == cur && !(l.sampleDue(cur) && l.sampleAndAdapt(cur)) {
			l.settle(cur, &a)
			return true
		}
		l.backOut(cur)
	}
}

var _ locks.CancelableLock = (*RWLock)(nil)

// LockCancel acquires the write lock, abandoning the attempt when c fires.
// Unlike glk.Lock, the RW write stream has no native per-family abort — the
// native protocol's FIFO ticket entangles the waiter with the drain — so a
// cancellable writer polls the full try protocol instead of enqueueing. It
// trades FIFO admission for trivially clean abort (a failed try holds
// nothing), which is the right trade for a waiter that may vanish at any
// poll.
func (l *RWLock) LockCancel(c *locks.Cancel) bool {
	if c.Never() {
		l.Lock()
		return true
	}
	tok := stripe.Self()
	var a telemetry.Acq
	if l.stats != nil {
		a = l.stats.Arrive(tok)
	}
	contended := !l.tryLockLow(tok)
	if contended && !locks.PollAcquire(func() bool { return l.tryLockLow(tok) }, c) {
		if l.stats != nil {
			a.Aborted(c.TimedOut())
		}
		return false
	}
	if l.stats != nil {
		a.Acquired(contended)
	}
	return true
}

// abortDepart is the bookkeeping of a waiter leaving without the lock: its
// presence count, if it was counted, is repaid, and the abort is recorded
// for the adaptation signal (sampleAndAdapt folds the delta into the queue
// sample).
func (l *Lock) abortDepart(a *arrival) {
	l.depart(a)
	l.state().aborts.Add(1)
}
