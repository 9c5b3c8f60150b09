package locks

import (
	"sync/atomic"

	"gls/internal/backoff"
	"gls/internal/pad"
)

// clhNode is one acquisition's queue entry. A waiter spins on its
// predecessor's node, so the queue is implicit (no next pointers).
type clhNode struct {
	locked atomic.Uint32
	_      [pad.CacheLineSize - 4]byte
}

// CLHLock is the Craig/Landin/Hagersten queue lock offered by the explicit
// GLS interface (paper Table 1). Like MCS it is FIFO with local spinning,
// but the queue is implicit: each waiter spins on the node of the thread
// ahead of it.
//
// Go adaptation: nodes are heap-allocated per acquisition and reclaimed by
// the garbage collector rather than recycled through the classic
// "take over the predecessor's node" dance. A CLH node's locked flag
// transitions 1→0 exactly once in its lifetime, which makes TryLock's
// read-then-CAS safe from ABA (a free node can never appear locked again).
type CLHLock struct {
	tail atomic.Pointer[clhNode]
	// holderNode is the current owner's own queue node — the one its
	// successor spins on. Holder-only state, guarded by the lock itself.
	holderNode *clhNode
	_          [pad.CacheLineSize - 16]byte
}

var _ Lock = (*CLHLock)(nil)

// NewCLH returns an unlocked CLH lock.
func NewCLH() *CLHLock {
	l := new(CLHLock)
	l.tail.Store(new(clhNode)) // sentinel: an already-released predecessor
	return l
}

// Lock enqueues a fresh node and spins on the predecessor's flag.
func (l *CLHLock) Lock() {
	n := new(clhNode)
	n.locked.Store(1)
	pred := l.tail.Swap(n)
	var s backoff.Spinner
	for pred.locked.Load() != 0 {
		s.Spin()
	}
	l.holderNode = n
}

// TryLock acquires the lock only if the thread at the tail has already
// released it.
func (l *CLHLock) TryLock() bool {
	pred := l.tail.Load()
	if pred.locked.Load() != 0 {
		return false
	}
	n := new(clhNode)
	n.locked.Store(1)
	if !l.tail.CompareAndSwap(pred, n) {
		return false
	}
	// pred was free and, once free, a node stays free forever, so the lock
	// is ours immediately.
	l.holderNode = n
	return true
}

// Unlock releases the lock by marking the owner's node free; the successor
// (spinning on that node) proceeds.
func (l *CLHLock) Unlock() {
	n := l.holderNode
	l.holderNode = nil
	n.locked.Store(0)
}
