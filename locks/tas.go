package locks

import (
	"sync/atomic"

	"gls/internal/backoff"
	"gls/internal/pad"
)

// TASLock is a test-and-set spinlock: acquisition is a single atomic
// exchange on one word. It is the simplest and, under no contention, one of
// the fastest locks, but every waiting probe writes the lock's cache line,
// so it collapses under contention (paper §2).
//
// The zero value is an unlocked lock, but NewTAS should be preferred so the
// lock occupies its own cache line.
type TASLock struct {
	state atomic.Uint32
	_     [pad.CacheLineSize - 4]byte
}

var _ Lock = (*TASLock)(nil)

// NewTAS returns an unlocked TAS lock.
func NewTAS() *TASLock { return new(TASLock) }

// Lock acquires l, spinning with exponential backoff while it is held.
func (l *TASLock) Lock() {
	var s backoff.Spinner
	for !l.state.CompareAndSwap(0, 1) {
		s.Spin()
	}
}

// TryLock attempts a single test-and-set.
func (l *TASLock) TryLock() bool {
	return l.state.CompareAndSwap(0, 1)
}

// Unlock releases l.
func (l *TASLock) Unlock() {
	l.state.Store(0)
}

// TTASLock is a test-and-test-and-set spinlock. Waiters spin on a read-only
// probe of the lock word and only attempt the atomic exchange when they
// observe it free, which keeps the line in shared state while waiting and
// reduces coherence traffic relative to TAS (paper §2).
type TTASLock struct {
	state atomic.Uint32
	_     [pad.CacheLineSize - 4]byte
}

var _ Lock = (*TTASLock)(nil)

// NewTTAS returns an unlocked TTAS lock.
func NewTTAS() *TTASLock { return new(TTASLock) }

// Lock acquires l.
func (l *TTASLock) Lock() {
	var s backoff.Spinner
	for {
		if l.state.Load() == 0 && l.state.CompareAndSwap(0, 1) {
			return
		}
		s.Spin()
	}
}

// TryLock attempts one test-and-test-and-set.
func (l *TTASLock) TryLock() bool {
	return l.state.Load() == 0 && l.state.CompareAndSwap(0, 1)
}

// Unlock releases l.
func (l *TTASLock) Unlock() {
	l.state.Store(0)
}
