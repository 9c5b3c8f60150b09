package locks

import (
	"unsafe"

	"gls/internal/pad"
)

// CohortLock is a lock-cohorting composition (Dice, Marathe, Shavit —
// PPoPP'12), the example the paper gives for algorithms users may add to
// the GLS/GLK family: "additional lock algorithms can be included ...
// (e.g., cohort locks)" (§3, "Including Additional Lock Algorithms").
//
// The composition here is C-TKT-TKT: a global ticket lock arbitrates
// between cohorts, and a per-cohort ticket lock arbitrates within one.
// When a holder releases and sees local waiters, it passes the global lock
// to its cohort (a local handoff — on NUMA hardware this keeps the lock's
// data on-node); after MaxCohortPasses consecutive local handoffs it
// releases the global lock so other cohorts make progress.
//
// Go adaptation: goroutines have no NUMA identity, so cohort membership is
// derived from a hash of the caller's stack address — stable for a
// goroutine in practice, and merely a performance heuristic: any
// assignment, even an adversarial one, preserves mutual exclusion.
type CohortLock struct {
	global TicketLock
	nodes  []cohortNode
	// holderNode is the cohort of the current holder (holder-only state).
	holderNode *cohortNode
	// 64 (global) + 24 (slice header) + 8 (pointer) = 96; pad to 2 lines.
	_ [2*pad.CacheLineSize - 96]byte
}

// MaxCohortPasses bounds consecutive in-cohort handoffs, bounding
// cross-cohort unfairness.
const MaxCohortPasses = 64

// DefaultCohorts is the cohort count used by NewCohort via locks.New —
// a stand-in for the machine's NUMA-node count.
const DefaultCohorts = 4

// cohortNode is one cohort's local lock plus handoff state.
type cohortNode struct {
	local TicketLock
	// globalOwned and passes are guarded by the local lock.
	globalOwned bool
	passes      int
	_           [pad.CacheLineSize - 16]byte
}

var _ Lock = (*CohortLock)(nil)

// NewCohort returns an unlocked cohort lock with DefaultCohorts cohorts.
func NewCohort() *CohortLock { return NewCohortN(DefaultCohorts) }

// NewCohortN returns an unlocked cohort lock with n cohorts (n ≥ 1).
func NewCohortN(n int) *CohortLock {
	if n < 1 {
		n = 1
	}
	return &CohortLock{nodes: make([]cohortNode, n)}
}

// cohortOf picks the caller's cohort from its stack address. Stacks are
// goroutine-private and their bases are spread across the address space, so
// this approximates a per-goroutine affinity without the cost of recovering
// a goroutine id. Stack growth can migrate a goroutine between cohorts;
// correctness does not depend on stability.
func (l *CohortLock) cohortOf() *cohortNode {
	var probe byte
	h := uintptr(unsafe.Pointer(&probe)) >> 14 // stacks start at 8KiB+
	h ^= h >> 7
	return &l.nodes[int(h)%len(l.nodes)]
}

// Lock acquires l: local ticket lock first, then the global lock unless the
// cohort already holds it from a local handoff.
func (l *CohortLock) Lock() {
	c := l.cohortOf()
	c.local.Lock()
	if !c.globalOwned {
		l.global.Lock()
		c.globalOwned = true
		c.passes = 0
	}
	l.holderNode = c
}

// TryLock acquires l only if both levels are immediately free.
func (l *CohortLock) TryLock() bool {
	c := l.cohortOf()
	if !c.local.TryLock() {
		return false
	}
	if !c.globalOwned {
		if !l.global.TryLock() {
			c.local.Unlock()
			return false
		}
		c.globalOwned = true
		c.passes = 0
	}
	l.holderNode = c
	return true
}

// Unlock releases l, preferring an in-cohort handoff when local waiters
// exist and the pass budget allows.
func (l *CohortLock) Unlock() {
	c := l.holderNode
	l.holderNode = nil
	// QueueLen > 1 means waiters beyond the holder are queued locally.
	if c.passes < MaxCohortPasses && c.local.QueueLen() > 1 {
		c.passes++
		// Local handoff: the global lock stays with the cohort; the next
		// local ticket holder inherits globalOwned == true.
		c.local.Unlock()
		return
	}
	c.globalOwned = false
	c.passes = 0
	l.global.Unlock()
	c.local.Unlock()
}

// QueueLen reports the global-level queue (cohorts waiting plus the
// holder's cohort). Within-cohort waiters are not included.
func (l *CohortLock) QueueLen() int { return l.global.QueueLen() }

// Locked reports whether any cohort holds the global lock (racy snapshot).
func (l *CohortLock) Locked() bool { return l.global.Locked() }
