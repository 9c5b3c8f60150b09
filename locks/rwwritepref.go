package locks

import (
	"sync/atomic"

	"gls/internal/backoff"
	"gls/internal/pad"
)

// RWWritePref is a write-preferring blocking reader-writer lock composed
// from the package's existing low-level locks: a MutexLock carries the
// writer side (so writers and the first-reader cohort park instead of
// burning cycles), a TASLock guards the reader count (held for a handful of
// instructions), and a waiting-writers word gives writers preference —
// readers that arrive while a writer is waiting or holding stand aside until
// the writer count drains.
//
// The preference inverts RWTTAS's throughput-first policy: there a reader
// flood can hold the state word above zero indefinitely and a writer never
// gets its CAS in, while here each arriving reader first yields to any
// announced writer. The cost is reader-side latency next to writers and a
// shared line touched by every RLock (the count guard), so this variant is
// for write-meaningful or oversubscribed workloads, not the read-mostly
// regime RWStriped targets.
//
// Like the rest of the package's blocking composition, RUnlock may release
// the writer mutex from a goroutine other than the one the cohort's first
// reader acquired it on — MutexLock explicitly supports cross-goroutine
// unlock (locks/layout_test.go pins that contract).
type RWWritePref struct {
	wwait  atomic.Int32 // writers waiting or holding; readers defer while > 0
	rcount int32        // current readers, guarded by rmu
	_      [pad.CacheLineSize - 8]byte
	rmu    TASLock   // guards rcount (held only for the count update)
	w      MutexLock // held by the writer, or by the first-reader cohort
}

var _ RWLock = (*RWWritePref)(nil)

// NewRWWritePref returns an unlocked write-preferring reader-writer lock.
func NewRWWritePref() *RWWritePref { return new(RWWritePref) }

// Lock acquires the write lock: announce (readers start deferring), then
// take the writer mutex, which waits out the current reader cohort and any
// earlier writers.
func (l *RWWritePref) Lock() {
	l.wwait.Add(1)
	l.w.Lock()
}

// TryLock attempts to acquire the write lock without waiting.
func (l *RWWritePref) TryLock() bool {
	if !l.w.TryLock() {
		return false
	}
	l.wwait.Add(1)
	return true
}

// Unlock releases the write lock.
func (l *RWWritePref) Unlock() {
	l.wwait.Add(-1)
	l.w.Unlock()
}

// RLock acquires a read share, deferring to announced writers first. The
// preference check is a read-only spin on the wwait word — no stores until
// the coast is clear — and is heuristic: a writer announcing after the
// check simply waits one cohort.
func (l *RWWritePref) RLock() {
	var s backoff.Spinner
	for l.wwait.Load() > 0 {
		s.Spin()
	}
	l.rmu.Lock()
	l.rcount++
	if l.rcount == 1 {
		// First of the cohort: take the writer mutex on the cohort's behalf
		// (parking here if a writer still holds it; later readers queue on
		// rmu until we are through).
		l.w.Lock()
	}
	l.rmu.Unlock()
}

// TryRLock attempts to acquire a read share without waiting. It fails if a
// writer is announced, holds the mutex, or the count guard is busy.
func (l *RWWritePref) TryRLock() bool {
	if l.wwait.Load() > 0 {
		return false
	}
	if !l.rmu.TryLock() {
		return false
	}
	defer l.rmu.Unlock()
	if l.rcount == 0 && !l.w.TryLock() {
		return false
	}
	l.rcount++
	return true
}

// RUnlock releases a read share; the last reader of the cohort hands the
// writer mutex back.
func (l *RWWritePref) RUnlock() {
	l.rmu.Lock()
	l.rcount--
	if l.rcount == 0 {
		l.w.Unlock()
	}
	l.rmu.Unlock()
}

// QueueLen returns the number of writers waiting for or holding the lock
// (racy snapshot) — the announce word the reader-preference check reads,
// doubling as the free writer-contention measure the adaptive policy
// samples.
func (l *RWWritePref) QueueLen() int {
	if n := l.wwait.Load(); n > 0 {
		return int(n)
	}
	return 0
}

// Readers returns the number of current read holders (racy snapshot;
// diagnostics only).
func (l *RWWritePref) Readers() int {
	l.rmu.Lock()
	n := l.rcount
	l.rmu.Unlock()
	return int(n)
}

// WriteLocked reports whether a writer holds the lock (racy snapshot): the
// mutex is held while no reader cohort accounts for it.
func (l *RWWritePref) WriteLocked() bool {
	return l.w.Locked() && l.Readers() == 0
}
