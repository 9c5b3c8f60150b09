package glk

import "gls/locks"

var _ locks.CancelableLock = (*Lock)(nil)

// LockCancel acquires l, abandoning the attempt when c fires, and reports
// whether the lock was acquired. It runs glk.Lock's one acquisition loop,
// acquire (paper Figure 4), which Lock also waits in with a nil Cancel; a
// Cancel that never fires waits exactly as Lock does.
//
// Abort composes with adaptation (DESIGN.md §11): the Cancel is only ever
// armed against one low-level family at a time. If the wait on family A
// succeeds but the mode moved meanwhile, the acquisition releases A
// completely before retrying on family B — so a waiter that gives up
// mid-transition has, by construction, either never enqueued on B or fully
// released A, and both queues stay clean. A latched Cancel aborts the retry
// immediately, after the release.
func (l *Lock) LockCancel(c *locks.Cancel) bool { return l.acquire(true, c) }

var _ locks.CancelableLock = (*RWLock)(nil)

// LockCancel acquires the write lock, abandoning the attempt when c fires.
// Unlike glk.Lock, the RW write stream has no native per-family abort — the
// native protocol's FIFO ticket entangles the waiter with the drain — so a
// cancellable writer polls the write loop's try (lockW without waiting)
// instead of enqueueing. It trades FIFO admission for trivially clean abort
// (a failed try holds nothing), which is the right trade for a waiter that
// may vanish at any poll.
func (l *RWLock) LockCancel(c *locks.Cancel) bool { return l.acquireW(true, c) }

// abortDepart is the bookkeeping of a waiter leaving without the lock: its
// presence count, if it was counted, is repaid, and the abort is recorded
// for the adaptation signal (sampleAndAdapt folds the delta into the queue
// sample).
func (l *Lock) abortDepart(a *arrival) {
	l.depart(a)
	l.state().aborts.Add(1)
}
