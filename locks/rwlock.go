package locks

import (
	"sync/atomic"

	"gls/internal/backoff"
	"gls/internal/pad"
)

// RWLock is the reader-writer contract shared by every RW algorithm in this
// package and by glk.RWLock: the exclusive Lock/TryLock/Unlock triple for
// the write side plus counted read shares. Writers must Unlock on the
// acquiring goroutine; read shares are counted, so RUnlock may run on a
// different goroutine than its RLock.
type RWLock interface {
	// Lock acquires the write lock, waiting out writers and readers.
	Lock()
	// Unlock releases the write lock.
	Unlock()
	// RLock acquires a read share; shares coexist with each other but
	// exclude writers.
	RLock()
	// RUnlock releases a read share, exactly once per acquisition.
	RUnlock()
	// TryLock acquires the write lock without waiting for other holders
	// and reports success. Tries are conservative: they may fail under
	// races a retry would win, and RWPhaseFair's — whose admission
	// protocol forbids abandoning a consumed writer ticket — may briefly
	// wait out read sections whose arrival raced its emptiness check
	// (see its comment).
	TryLock() bool
	// TryRLock acquires a read share without waiting and reports success.
	TryRLock() bool
}

// rwWriter is the state value representing a held write lock.
const rwWriter = -1

// RWTTAS is a TTAS-based reader-writer spinlock. The paper's systems
// evaluation overloads pthread reader-writer locks with exactly this kind of
// implementation ("we overload the pthread reader-writer locks with our
// custom TTAS-based implementation", §5.2 footnote 7).
//
// State: 0 free, -1 write-held, n>0 read-held by n readers. Writers do not
// get preference; like the paper's spinlocks this favors throughput over
// writer latency.
type RWTTAS struct {
	state atomic.Int32
	_     [pad.CacheLineSize - 4]byte
}

var _ RWLock = (*RWTTAS)(nil)

// NewRWTTAS returns an unlocked reader-writer lock.
func NewRWTTAS() *RWTTAS { return new(RWTTAS) }

// Lock acquires the write lock.
func (l *RWTTAS) Lock() {
	var s backoff.Spinner
	for {
		if l.state.Load() == 0 && l.state.CompareAndSwap(0, rwWriter) {
			return
		}
		s.Spin()
	}
}

// TryLock attempts to acquire the write lock without waiting.
func (l *RWTTAS) TryLock() bool {
	return l.state.Load() == 0 && l.state.CompareAndSwap(0, rwWriter)
}

// Unlock releases the write lock.
func (l *RWTTAS) Unlock() {
	l.state.Store(0)
}

// RLock acquires a read share.
func (l *RWTTAS) RLock() {
	var s backoff.Spinner
	for {
		if cur := l.state.Load(); cur >= 0 && l.state.CompareAndSwap(cur, cur+1) {
			return
		}
		s.Spin()
	}
}

// TryRLock attempts to acquire a read share without waiting.
func (l *RWTTAS) TryRLock() bool {
	cur := l.state.Load()
	return cur >= 0 && l.state.CompareAndSwap(cur, cur+1)
}

// RUnlock releases a read share.
func (l *RWTTAS) RUnlock() {
	l.state.Add(-1)
}

// WriteLocked reports whether a writer holds the lock (racy snapshot).
func (l *RWTTAS) WriteLocked() bool { return l.state.Load() == rwWriter }
