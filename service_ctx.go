package gls

import (
	"context"
	"time"

	"gls/locks"
)

// This file is the service surface of glsx: deadline- and context-bounded
// acquisition with the same key-addressed, auto-creating contract as the
// blocking entry points. The bounded paths ride the locks.Cancel protocol
// (package locks), so on every algorithm with a native abort — glk's three
// exclusive families, ticket, mcs, mutex, tas/ttas — a waiter that gives up
// departs the queue cleanly instead of occupying a slot until its turn.
//
// The fast path is untouched by construction: a context that can never fire
// (context.Background, context.TODO) short-circuits to the exact blocking
// entry point before any Cancel state is built, and the blocking entry
// points themselves do not change.

// cancelFromCtx builds the lock-layer abort conditions from a context. The
// result is per-acquisition state, like the context's own Done channel is
// per-tree state; a Background-like context yields a never-firing Cancel.
func cancelFromCtx(ctx context.Context) *locks.Cancel {
	c := &locks.Cancel{Done: ctx.Done()}
	if d, ok := ctx.Deadline(); ok {
		c.Deadline = d
	}
	return c
}

// abortErr maps an aborted acquisition to its context error. The Cancel's
// latched cause decides first: our deadline poll can fire a scheduler slice
// before the context's own timer closes Done, and in that window ctx.Err()
// is still nil even though the wait timed out.
func abortErr(ctx context.Context, c *locks.Cancel) error {
	if c.TimedOut() {
		return context.DeadlineExceeded
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// LockCtx acquires the GLK lock for key like Lock, but gives up when ctx is
// cancelled or its deadline passes while queued, returning the context's
// error (nil means the lock is held). Like x/sync/semaphore, the grant
// beats the abort: an acquisition that completes before the cancellation
// takes effect returns nil even if ctx is already done.
func (s *Service) LockCtx(ctx context.Context, key uint64) error {
	c := cancelFromCtx(ctx)
	if c.Never() {
		s.Lock(key)
		return nil
	}
	if !s.acquire(algoGLK, key, true, c) {
		return abortErr(ctx, c)
	}
	return nil
}

// TryLockFor acquires the GLK lock for key, waiting up to d, and reports
// whether the lock was acquired — TryLock with patience. d <= 0 degenerates
// to TryLock.
func (s *Service) TryLockFor(key uint64, d time.Duration) bool {
	if d <= 0 {
		return s.TryLock(key)
	}
	return s.acquire(algoGLK, key, true, &locks.Cancel{Deadline: time.Now().Add(d)})
}

// WithLock runs fn while holding key's lock. The unlock is deferred, so a
// panicking fn releases the lock before the panic propagates — the critical
// section cannot leak a held lock into the recover path above it.
func (s *Service) WithLock(key uint64, fn func()) {
	s.Lock(key)
	defer s.Unlock(key)
	fn()
}
