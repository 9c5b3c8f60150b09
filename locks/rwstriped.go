package locks

import (
	"sync/atomic"
	"unsafe"

	"gls/internal/backoff"
	"gls/internal/pad"
	"gls/internal/stripe"
)

// rwInflateReaders is the inline reader count at which an arriving reader
// inflates the stripe spill: 2 means "another reader is here right now" —
// the same observed-concurrency trigger GLK uses for its presence counter.
const rwInflateReaders = 2

// RWStriped is a striped-reader reader-writer spinlock in the style of
// BRAVO (Dice & Kogan, "BRAVO — Biased Locking for Reader-Writer Locks")
// and the kernel's brlock: readers announce themselves in per-stripe
// counter cells chosen by a per-goroutine hash, and a writer, after taking
// the writer mutex and raising the writer flag, sweeps the stripes until
// the reader count drains to zero.
//
// The shape inverts RWTTAS's cost model. RWTTAS makes every RLock a
// compare-and-swap on one shared word — readers invalidate each other's
// cache lines even though they conflict with nobody — while here a reader
// in the steady state writes only its own stripe line and *reads* the
// shared line (writer flag), which stays valid in every reader's cache
// until a writer actually arrives. Writers pay for that: acquisition is a
// mutex, a flag store, and a sweep of NumStripes+1 lines. That is the right
// trade exactly where reader-writer locks matter — read-mostly workloads
// (kyoto, litesql, appsync model theirs at 90%+ reads).
//
// Space follows the lazy-striping discipline of DESIGN.md §8: an idle lock
// is one cache line (writer flag, writer mutex, inline reader cell); the
// stripe spill is allocated only when a reader observes another reader
// (rwInflateReaders), so a million-key table of uncontended RW locks never
// pays the 8-line spill. locks/layout_test.go pins both sizes.
//
// Writers are FIFO among themselves (ticket mutex). Readers that arrive
// while a writer holds or drains back their count out and wait, so writers
// are not starved by a reader flood; between writers, readers flow freely.
//
// The reverse is not free: a continuous writer stream keeps the flag up
// almost continuously, and a reader can be bypassed by an unbounded number
// of writer phases (lockstress -bug readerstarvation demonstrates it). The
// remedy is a different admission order, not a knob on this one:
// RWPhaseFair bounds a reader's wait by construction, and glk.RWLock, whose
// native mode is this protocol, sees the bypass through its handoff-counted
// starvation signal and switches the key to phase-fair (DESIGN.md §10 has
// the decision table).
type RWStriped struct {
	readers stripe.Counter // lazily-striped count of present readers
	wmu     TicketCore     // writer↔writer exclusion, FIFO
	writer  atomic.Uint32  // 1 while a writer holds or is draining
	_       [pad.CacheLineSize - unsafe.Sizeof(stripe.Counter{}) - unsafe.Sizeof(TicketCore{}) - 4]byte
}

var _ RWLock = (*RWStriped)(nil)

// NewRWStriped returns an unlocked striped reader-writer lock.
func NewRWStriped() *RWStriped { return new(RWStriped) }

// RLock acquires a read share. In the steady state (no writer) this is one
// atomic update on the caller's stripe line plus one read of the shared
// line; while the counter is inline the update lands in the inline cell
// and doubles as the concurrency probe that triggers inflation.
func (l *RWStriped) RLock() {
	tok := stripe.Self()
	var s backoff.Spinner
	for {
		n := l.readers.AddGet(tok, 1)
		if l.writer.Load() == 0 {
			// The inline AddGet value is the global reader count: a second
			// simultaneous reader proves reader concurrency, which is what
			// the stripes exist for. (Inflated, n is stripe-local and the
			// Inflate below is a no-op load.)
			if n >= rwInflateReaders {
				l.readers.Inflate()
			}
			return
		}
		// A writer holds or is draining: back our count out so the drain can
		// finish, then wait for the flag to drop off the shared line.
		l.readers.Add(tok, -1)
		for l.writer.Load() != 0 {
			s.Spin()
		}
	}
}

// TryRLock attempts to acquire a read share without waiting.
func (l *RWStriped) TryRLock() bool {
	if l.writer.Load() != 0 {
		return false
	}
	tok := stripe.Self()
	n := l.readers.AddGet(tok, 1)
	if l.writer.Load() == 0 {
		if n >= rwInflateReaders {
			l.readers.Inflate()
		}
		return true
	}
	l.readers.Add(tok, -1)
	return false
}

// RUnlock releases a read share. The token may differ from the one RLock
// used (stack depths differ between call sites); the counter's total stays
// exact across any token sequence.
func (l *RWStriped) RUnlock() {
	l.readers.Add(stripe.Self(), -1)
}

// Lock acquires the write lock: writer↔writer exclusion through the FIFO
// ticket mutex, then the flag store that turns new readers away, then the
// sweep that waits out readers already inside. Publication order matters —
// flag first, then sweep — and Go atomics are sequentially consistent, so a
// reader whose increment the sweep missed must observe the flag and back
// out (the store-load pairing of a Dekker handshake).
func (l *RWStriped) Lock() {
	l.wmu.Lock()
	l.writer.Store(1)
	var s backoff.Spinner
	for l.readers.Sum() != 0 {
		s.Spin()
	}
}

// TryLock attempts to acquire the write lock without waiting: it fails if
// another writer holds the mutex or any reader is present (including
// readers that are mid-backout; try semantics are conservative).
func (l *RWStriped) TryLock() bool {
	if !l.wmu.TryLock() {
		return false
	}
	l.writer.Store(1)
	if l.readers.Sum() != 0 {
		l.writer.Store(0)
		l.wmu.Unlock()
		return false
	}
	return true
}

// Unlock releases the write lock.
func (l *RWStriped) Unlock() {
	l.writer.Store(0)
	l.wmu.Unlock()
}

// WriteLocked reports whether a writer holds (or is acquiring) the lock
// (racy snapshot).
func (l *RWStriped) WriteLocked() bool { return l.writer.Load() != 0 }

// ReadersInflated reports whether the reader counter has spilled to its
// striped form — i.e. whether the lock ever observed reader concurrency.
// Introspection for footprint accounting and tests.
func (l *RWStriped) ReadersInflated() bool { return l.readers.Inflated() }
