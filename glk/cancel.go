package glk

import (
	"fmt"

	"gls/internal/stripe"
	"gls/locks"
)

var _ locks.CancelableLock = (*Lock)(nil)

// LockCancel acquires l, abandoning the attempt when c fires, and reports
// whether the lock was acquired. A nil or never-firing Cancel takes the
// exact Lock path, so cancellable call sites cost nothing until a deadline
// or done channel is actually in play.
//
// Abort composes with adaptation (DESIGN.md §11): the Cancel is only ever
// armed against one low-level family at a time. If the wait on family A
// succeeds but the mode moved meanwhile, the acquisition releases A
// completely before retrying on family B — so a waiter that gives up
// mid-transition has, by construction, either never enqueued on B or fully
// released A, and both queues stay clean. A latched Cancel aborts the retry
// immediately, after the release.
func (l *Lock) LockCancel(c *locks.Cancel) bool {
	if c.Never() {
		l.Lock()
		return true
	}
	if l.stats != nil {
		return l.lockCancelInstrumented(c)
	}
	var a arrival
	for {
		cur := Mode(l.lockType.Load())
		l.count(cur, &a)
		if !l.lockLowCancel(cur, c) {
			l.abortDepart(&a)
			return false
		}
		if Mode(l.lockType.Load()) == cur && !(l.sampleDue(cur) && l.sampleAndAdapt(cur)) {
			l.settle(cur, &a)
			return true
		}
		l.backOut(cur)
	}
}

// lockCancelInstrumented is LockCancel's telemetry twin: the same loop,
// with the try-first contended probe and the Arrive/Acquired/Aborted hooks.
func (l *Lock) lockCancelInstrumented(c *locks.Cancel) bool {
	a := arrival{tok: stripe.Self()}
	acq := l.stats.Arrive(a.tok)
	contended := false
	for {
		cur := Mode(l.lockType.Load())
		l.count(cur, &a)
		if !l.tryLockLow(cur) {
			contended = true
			if !l.lockLowCancel(cur, c) {
				l.abortDepart(&a)
				acq.Aborted(c.TimedOut())
				return false
			}
		}
		if Mode(l.lockType.Load()) == cur && !(l.sampleDue(cur) && l.sampleAndAdapt(cur)) {
			l.settleInstrumented(cur, &a)
			acq.Acquired(contended)
			return true
		}
		l.backOut(cur)
	}
}

// lockLowCancel runs the cancellable acquisition of mode m's low-level
// lock. Every GLK family aborts natively: ticket by retire-or-abandon, mcs
// by node marking, mutex by queue unlinking (package locks).
func (l *Lock) lockLowCancel(m Mode, c *locks.Cancel) bool {
	switch m {
	case ModeTicket:
		return l.ticket.LockCancel(c)
	case ModeMCS:
		return l.mcs().LockCancel(c)
	case ModeMutex:
		return l.mutex().LockCancel(c)
	default:
		panic(fmt.Sprintf("glk: corrupt mode %v (use glk.New)", m))
	}
}

var _ locks.CancelableLock = (*RWLock)(nil)
var _ locks.CancelableRWLock = (*RWLock)(nil)

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
	if l.stats == nil {
		return locks.PollAcquire(func() bool { return l.tryLockLow(tok) }, c)
	}
	a := l.stats.Arrive(tok)
	if l.tryLockLow(tok) {
		a.Acquired(false)
		return true
	}
	if !locks.PollAcquire(func() bool { return l.tryLockLow(tok) }, c) {
		a.Aborted(c.TimedOut())
		return false
	}
	a.Acquired(true)
	return true
}

// RLockCancel acquires a read share, abandoning the attempt when c fires.
// Like LockCancel it polls the uninstrumented try core: a reader that has
// not yet registered presence can always walk away, so every poll is a
// clean abort point, and the single RArrive/RAborted pair keeps the
// telemetry lanes honest (polling the public TryRLock would count one
// arrival per poll).
func (l *RWLock) RLockCancel(c *locks.Cancel) bool {
	if c.Never() {
		l.RLock()
		return true
	}
	tok := stripe.Self()
	if l.stats == nil {
		return locks.PollAcquire(func() bool { return l.tryRLockLow(tok) }, c)
	}
	a := l.stats.RArrive(tok)
	if l.tryRLockLow(tok) {
		a.RAcquired(false)
		return true
	}
	if !locks.PollAcquire(func() bool { return l.tryRLockLow(tok) }, c) {
		a.RAborted(c.TimedOut())
		return false
	}
	a.RAcquired(true)
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
