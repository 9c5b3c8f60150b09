package locks

import (
	"sync"
	"sync/atomic"

	"gls/internal/backoff"
	"gls/internal/pad"
)

// MCS node states. Granted is zero, so the wait is the classic algorithm's
// spin-until-zero plus an abort poll.
const (
	mcsGranted   uint32 = 0 // predecessor handed the lock over
	mcsWaiting   uint32 = 1 // enqueued, spinning
	mcsAbandoned uint32 = 2 // waiter departed; releaser unlinks and recycles
)

// mcsNode is one waiter's queue entry. Each waiter spins on its own node's
// state word, so waiting generates no traffic on shared lines.
type mcsNode struct {
	next atomic.Pointer[mcsNode]
	// state is the waiter's private spin word, one of mcsGranted /
	// mcsWaiting / mcsAbandoned. Grant and abandonment race on a CAS from
	// mcsWaiting, so exactly one side wins (Scott & Scherer's timeout-
	// capable queue locks use the same node-marking idea).
	state atomic.Uint32
	// 8 (next) + 4 (state) = 12 bytes of fields; pad to one line.
	_ [pad.CacheLineSize - 12]byte
}

// MCSLock is the Mellor-Crummey/Scott queue lock GLK uses in its
// high-contention mode. Waiters form an explicit queue; each spins on a
// private flag and is handed the lock by its predecessor, giving FIFO order
// and per-waiter-local spinning (paper §2).
//
// Go adaptation: the paper's C code keeps the queue node in the thread's
// stack frame across lock/unlock. Go goroutines cannot pass stack state
// through a Lock/Unlock interface, so the node is recorded in a holder-only
// field of the lock between Lock and Unlock — safe because only the holder
// touches it — and nodes are recycled through a pool.
//
// Cancellation (DESIGN.md §11): an aborting waiter does not unlink itself —
// that would require its predecessor's cooperation and break local-spin
// handoff. It marks its node abandoned and departs; the node stays linked
// and is unlinked, skipped and recycled by whichever releaser's handoff
// walk reaches it. Until then an abandoned node occupies queue space but no
// goroutine, so a stalled holder plus any number of timed-out waiters costs
// a bounded walk at the eventual (or never) release, never a wedged waiter.
type MCSLock struct {
	tail atomic.Pointer[mcsNode]
	// holder is the current owner's queue node. Guarded by the lock itself:
	// written by the owner right after acquiring and read by the owner in
	// Unlock.
	holder *mcsNode
	_      [pad.CacheLineSize - 16]byte
}

var (
	_ Lock           = (*MCSLock)(nil)
	_ CancelableLock = (*MCSLock)(nil)
)

// mcsNodePool recycles queue nodes across all MCS locks. A node enters the
// pool only once no other goroutine can reference it (see Unlock), so reuse
// cannot ABA the queue: enqueueing always goes through an unconditional swap
// or a CAS-from-nil.
var mcsNodePool = sync.Pool{
	New: func() any { return new(mcsNode) },
}

// NewMCS returns an unlocked MCS lock.
func NewMCS() *MCSLock { return new(MCSLock) }

// enqueue readies a pooled node in the waiting state and appends it to the
// queue, returning the node and its predecessor (nil when the queue was
// empty, i.e. the lock is acquired immediately).
func (l *MCSLock) enqueue() (n, pred *mcsNode) {
	n = mcsNodePool.Get().(*mcsNode)
	n.next.Store(nil)
	n.state.Store(mcsWaiting)
	pred = l.tail.Swap(n)
	if pred != nil {
		pred.next.Store(n)
	}
	return n, pred
}

// Lock appends the caller to the waiter queue and spins on its private node
// until its predecessor hands over the lock: LockCancel with a Cancel that
// never fires.
func (l *MCSLock) Lock() { l.LockCancel(nil) }

// LockCancel acquires the lock, abandoning the wait when c fires. An
// aborting waiter CASes its node from waiting to abandoned; if the CAS
// loses to a concurrent grant, the lock is already ours and LockCancel
// returns true (grant beats abort). On abandonment the node's ownership
// passes to the future releaser — the departing goroutine never touches it
// again, and in particular never returns it to the pool.
func (l *MCSLock) LockCancel(c *Cancel) bool {
	n, pred := l.enqueue()
	if pred == nil {
		l.holder = n
		return true
	}
	var s backoff.Spinner
	for {
		if n.state.Load() == mcsGranted {
			l.holder = n
			return true
		}
		if c.Aborted() {
			if n.state.CompareAndSwap(mcsWaiting, mcsAbandoned) {
				return false
			}
			// The grant raced the abort and won: we hold the lock.
			l.holder = n
			return true
		}
		s.Spin()
	}
}

// TryLock acquires the lock only if the queue is empty.
func (l *MCSLock) TryLock() bool {
	n := mcsNodePool.Get().(*mcsNode)
	n.next.Store(nil)
	n.state.Store(mcsWaiting)
	if l.tail.CompareAndSwap(nil, n) {
		l.holder = n
		return true
	}
	mcsNodePool.Put(n)
	return false
}

// Unlock hands the lock to the first non-abandoned successor and recycles
// the owner's node plus any abandoned nodes it walks over. Once a successor
// is observed abandoned (our grant CAS lost to its abandonment CAS), its
// departed owner will never touch it again, so this releaser owns it and
// treats it exactly like its own node: hand off to *its* successor or reset
// the queue.
func (l *MCSLock) Unlock() {
	n := l.holder
	l.holder = nil
	for {
		succ := n.next.Load()
		if succ == nil {
			// No visible successor: try to reset the queue to empty.
			if l.tail.CompareAndSwap(n, nil) {
				mcsNodePool.Put(n)
				return
			}
			// A successor swapped itself in but has not linked yet; wait
			// for the link. The window is two instructions long, so plain
			// yielding suffices.
			for succ == nil {
				backoff.Yield()
				succ = n.next.Load()
			}
		}
		granted := succ.state.CompareAndSwap(mcsWaiting, mcsGranted)
		// Either way n is now unreachable: the successor (or its releaser)
		// never re-reads its predecessor.
		mcsNodePool.Put(n)
		if granted {
			return
		}
		// succ abandoned its wait; continue the handoff from its position.
		n = succ
	}
}

// QueueLen counts the nodes from the holder to the tail of the queue:
// waiters plus one for the holder, zero when free. Abandoned nodes not yet
// walked over by a releaser are included — the count is a contention
// signal, and a recently-departed waiter is recent contention.
//
// Per the paper, this traversal "breaks the 'each node is accessed by a
// single thread' design goal of MCS" and must be infrequent. It is only
// safe when invoked by the current holder; called on a free lock it
// returns 0. (GLK counts an mcs-mode queue by presence instead, DESIGN.md
// §4.)
func (l *MCSLock) QueueLen() int {
	n := l.holder
	if n == nil {
		return 0
	}
	count := 1
	for {
		next := n.next.Load()
		if next == nil {
			return count
		}
		count++
		n = next
	}
}
