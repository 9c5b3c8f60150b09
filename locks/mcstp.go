package locks

import (
	"sync/atomic"
	"time"

	"gls/internal/backoff"
	"gls/internal/pad"
)

// Time-published MCS (He, Scherer, Scott — HiPC'05) is the paper's cited
// remedy for fair locks under preemption: "There do exist techniques, such
// as time-published queue-based locks, for alleviating this problem"
// (§3.2, footnote 4). Waiters continuously publish timestamps while they
// spin; at handoff the releaser skips waiters whose timestamps are stale —
// i.e. goroutines the scheduler has preempted — so the lock never hands
// ownership to someone who cannot run. Skipped waiters observe their node
// was abandoned and re-enqueue.
//
// This is an extension beyond the paper's GLK mode set, provided through
// the same explicit GLS interface as the other algorithms.

// DefaultTPPatience is how stale a waiter's published timestamp may be
// before the releaser passes over it.
const DefaultTPPatience = time.Millisecond

// tpState is the lifecycle of a time-published queue node.
const (
	tpWaiting uint32 = iota
	tpGranted
	tpFailed
)

// tpNode is one acquisition attempt. Nodes are garbage-collected, never
// pooled: a skipped waiter may read its node long after the releaser moved
// on, so reuse would race.
type tpNode struct {
	next      atomic.Pointer[tpNode]
	state     atomic.Uint32
	published atomic.Int64 // UnixNano of the waiter's latest spin
	_         [pad.CacheLineSize - 24]byte
}

// MCSTPLock is a time-published MCS queue lock: FIFO among running
// waiters, but preempted waiters lose their turn instead of stalling the
// lock.
type MCSTPLock struct {
	tail     atomic.Pointer[tpNode]
	holder   *tpNode       // holder-only state, guarded by the lock
	patience time.Duration // staleness threshold
	skips    atomic.Uint64 // abandoned handoffs, for observability
	// 8*4 = 32 bytes of fields; pad to one line.
	_ [pad.CacheLineSize - 32]byte
}

var _ Lock = (*MCSTPLock)(nil)

// NewMCSTP returns an unlocked time-published MCS lock with the default
// patience.
func NewMCSTP() *MCSTPLock { return NewMCSTPWithPatience(DefaultTPPatience) }

// NewMCSTPWithPatience returns an unlocked lock with a custom staleness
// threshold. Smaller patience skips preempted waiters sooner at the cost of
// more spurious re-enqueues.
func NewMCSTPWithPatience(patience time.Duration) *MCSTPLock {
	if patience <= 0 {
		patience = DefaultTPPatience
	}
	return &MCSTPLock{patience: patience}
}

// Lock acquires l. A waiter whose node is abandoned (because it looked
// preempted at handoff time) transparently re-enqueues.
func (l *MCSTPLock) Lock() {
	for {
		n := &tpNode{}
		n.state.Store(tpWaiting)
		n.published.Store(time.Now().UnixNano())
		pred := l.tail.Swap(n)
		if pred == nil {
			l.holder = n
			return
		}
		pred.next.Store(n)
		var s backoff.Spinner
		for {
			switch n.state.Load() {
			case tpGranted:
				l.holder = n
				return
			case tpFailed:
				// We were passed over while preempted; try again at the back
				// of the queue.
				goto reenqueue
			}
			n.published.Store(time.Now().UnixNano())
			s.Spin()
		}
	reenqueue:
	}
}

// TryLock acquires l only if the queue is empty.
func (l *MCSTPLock) TryLock() bool {
	n := &tpNode{}
	n.state.Store(tpWaiting)
	n.published.Store(time.Now().UnixNano())
	if l.tail.CompareAndSwap(nil, n) {
		l.holder = n
		return true
	}
	return false
}

// Unlock hands the lock to the first waiter that is still publishing
// timestamps, abandoning stale (preempted) waiters along the way.
func (l *MCSTPLock) Unlock() {
	n := l.holder
	l.holder = nil
	for {
		succ := n.next.Load()
		if succ == nil {
			// No linked successor: the queue may be empty, or an enqueuer
			// is mid-link.
			if l.tail.CompareAndSwap(n, nil) {
				return
			}
			for succ == nil {
				backoff.Yield()
				succ = n.next.Load()
			}
		}
		stale := time.Now().UnixNano()-succ.published.Load() > l.patience.Nanoseconds()
		if !stale {
			succ.state.Store(tpGranted)
			return
		}
		// Abandon the preempted waiter and continue down the queue from its
		// node (its next pointer is the rest of the line).
		succ.state.Store(tpFailed)
		l.skips.Add(1)
		n = succ
	}
}

// Skips reports how many waiters have been passed over as preempted.
func (l *MCSTPLock) Skips() uint64 { return l.skips.Load() }

// QueueLen counts linked nodes from the holder to the tail (holder
// included). Holder-only, like MCSLock.QueueLen.
func (l *MCSTPLock) QueueLen() int {
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

// Locked reports whether the lock is currently held (racy; diagnostics only).
func (l *MCSTPLock) Locked() bool { return l.tail.Load() != nil }
