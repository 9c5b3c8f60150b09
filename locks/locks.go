// Package locks implements the lock algorithms studied in "Locking Made
// Easy" (Middleware'16) plus the reader-writer family glk.RWLock walks.
//
// Exclusive locks (the Lock interface, constructed via New) are exactly the
// paper's Table 1: the simple spinlocks TAS, TTAS and TICKET, the
// queue-based spinlocks MCS and CLH, and a lightweight blocking MUTEX.
//
// Reader-writer locks (the RWLock interface, constructed via NewRW): RWTTAS
// (the TTAS-based lock the paper substitutes for pthread rwlocks in its
// systems evaluation, §5.2 footnote 7), RWStriped (BRAVO-style striped
// readers), RWWritePref (a blocking, write-preferring composition), and
// RWPhaseFair (Brandenburg-style alternating reader/writer phases — neither
// side can starve). The README's algorithm-selection table and DESIGN.md
// §§9–10 say which to pick when; glk.RWLock picks among them adaptively.
//
// All locks are padded to cache-line size "for fairness and for avoiding
// false cache-line sharing" (paper §3.2), expose the same Lock/TryLock/
// Unlock contract, and — unlike sync.Mutex — require Unlock to be called by
// the goroutine that acquired the lock (the queue-based algorithms stash
// their queue node in holder-only state). Read shares (RLock/RUnlock) are
// counted, not owned: RUnlock may run on a different goroutine than the
// RLock it pairs with.
//
// Spin loops escalate to runtime.Gosched so the algorithms remain live when
// runnable goroutines outnumber GOMAXPROCS; see package backoff.
package locks

import (
	"fmt"
)

// Lock is the mutual-exclusion contract shared by every algorithm in this
// package and by glk.Lock.
type Lock interface {
	// Lock acquires the lock, waiting as long as necessary.
	Lock()
	// TryLock acquires the lock without waiting and reports success.
	TryLock() bool
	// Unlock releases the lock. It must be called by the goroutine that
	// acquired it, exactly once per acquisition.
	Unlock()
}

// Algorithm identifies a lock implementation.
type Algorithm int

// The algorithms offered by the explicit GLS interface: the paper's Table 1.
const (
	TAS Algorithm = iota + 1
	TTAS
	Ticket
	MCS
	CLH
	Mutex
)

var algorithmNames = map[Algorithm]string{
	TAS:    "tas",
	TTAS:   "ttas",
	Ticket: "ticket",
	MCS:    "mcs",
	CLH:    "clh",
	Mutex:  "mutex",
}

// String returns the lower-case name the paper uses for the algorithm.
func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Valid reports whether a names a known algorithm.
func (a Algorithm) Valid() bool {
	_, ok := algorithmNames[a]
	return ok
}

// Algorithms lists every supported algorithm — the paper's Table 1 — in
// declaration order.
func Algorithms() []Algorithm {
	return []Algorithm{TAS, TTAS, Ticket, MCS, CLH, Mutex}
}

// New constructs a fresh, unlocked lock of the given algorithm. It panics on
// an unknown algorithm: the set is closed and the argument is always a
// compile-time constant in correct programs.
func New(a Algorithm) Lock {
	switch a {
	case TAS:
		return NewTAS()
	case TTAS:
		return NewTTAS()
	case Ticket:
		return NewTicket()
	case MCS:
		return NewMCS()
	case CLH:
		return NewCLH()
	case Mutex:
		return NewMutex()
	default:
		panic(fmt.Sprintf("locks: New(%v): unknown algorithm", a))
	}
}
