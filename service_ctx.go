package gls

import (
	"context"
	"time"

	"gls/internal/gid"
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
	if s.fast {
		if e := s.table.Get(key); e != nil {
			if locks.LockWithCancel(e.exclusive(), c) {
				return nil
			}
			return abortErr(ctx, c)
		}
	}
	if !s.lockCancelWith(algoGLK, key, c) {
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
	c := &locks.Cancel{Deadline: time.Now().Add(d)}
	if s.fast {
		if e := s.table.Get(key); e != nil {
			return locks.LockWithCancel(e.exclusive(), c)
		}
	}
	return s.lockCancelWith(algoGLK, key, c)
}

// lockCancelWith is the bounded twin of lockWith: the general path for
// first uses and debug-mode services.
func (s *Service) lockCancelWith(a locks.Algorithm, key uint64, c *locks.Cancel) bool {
	e, created := s.entryFor(key, a)
	if s.dbg != nil {
		me := gid.Get()
		s.debugPreLock(me, e, created, a)
		return s.debugLockCancel(me, e, c)
	}
	return locks.LockWithCancel(e.exclusive(), c)
}

// debugLockCancel is debugLock with an abort path: the waiting record is
// cleared whether the wait ended in a grant or a departure, and the owner
// word is only written on a grant.
func (s *Service) debugLockCancel(me gid.ID, e *entry, c *locks.Cancel) bool {
	if !e.exclusive().TryLock() {
		s.dbg.setWaiting(me, e.key)
		ok := locks.LockWithCancel(e.exclusive(), c)
		s.dbg.clearWaiting(me)
		if !ok {
			return false
		}
	}
	e.owner.Store(uint64(me))
	return true
}

// RLockCtx acquires a read share of key's reader-writer lock like RLock,
// but gives up when ctx fires while waiting, returning the context's error
// (nil means the share is held). Same species rules as RLock: the key must
// be (or become) a reader-writer key.
func (s *Service) RLockCtx(ctx context.Context, key uint64) error {
	c := cancelFromCtx(ctx)
	if c.Never() {
		s.RLock(key)
		return nil
	}
	if s.fast {
		if e := s.table.Get(key); e != nil {
			rw := e.rwLock()
			if rw == nil {
				s.entryForRW(key, algoGLKRW) // panics with the species message
			}
			if locks.RLockWithCancel(rw, c) {
				return nil
			}
			return abortErr(ctx, c)
		}
	}
	if !s.rlockCancelWith(algoGLKRW, key, c) {
		return abortErr(ctx, c)
	}
	return nil
}

// TryRLockFor acquires a read share of key's reader-writer lock, waiting up
// to d, and reports whether the share was taken. d <= 0 degenerates to
// TryRLock.
func (s *Service) TryRLockFor(key uint64, d time.Duration) bool {
	if d <= 0 {
		return s.TryRLock(key)
	}
	c := &locks.Cancel{Deadline: time.Now().Add(d)}
	if s.fast {
		if e := s.table.Get(key); e != nil {
			rw := e.rwLock()
			if rw == nil {
				s.entryForRW(key, algoGLKRW)
			}
			return locks.RLockWithCancel(rw, c)
		}
	}
	return s.rlockCancelWith(algoGLKRW, key, c)
}

// rlockCancelWith is the bounded twin of rlockWith.
func (s *Service) rlockCancelWith(a locks.RWAlgorithm, key uint64, c *locks.Cancel) bool {
	e, created := s.entryForRW(key, a)
	if s.dbg != nil {
		return s.debugRLockCancel(e, created, a, c)
	}
	return locks.RLockWithCancel(e.rwLock(), c)
}

// debugRLockCancel is debugRLock with an abort path; the reader record is
// only added on a grant.
func (s *Service) debugRLockCancel(e *entry, created bool, requested locks.RWAlgorithm, c *locks.Cancel) bool {
	me := gid.Get()
	s.debugPreRLock(me, e, created, requested)
	if !e.rwLock().TryRLock() {
		s.dbg.setWaiting(me, e.key)
		ok := locks.RLockWithCancel(e.rwLock(), c)
		s.dbg.clearWaiting(me)
		if !ok {
			return false
		}
	}
	s.dbg.addReader(e.key, me)
	return true
}

// WithLock runs fn while holding key's lock. The unlock is deferred, so a
// panicking fn releases the lock before the panic propagates — the critical
// section cannot leak a held lock into the recover path above it.
func (s *Service) WithLock(key uint64, fn func()) {
	s.Lock(key)
	defer s.Unlock(key)
	fn()
}

// WithRLock runs fn while holding a read share of key's lock, with the same
// panic safety as WithLock.
func (s *Service) WithRLock(key uint64, fn func()) {
	s.RLock(key)
	defer s.RUnlock(key)
	fn()
}

// LockCtx is the handle twin of Service.LockCtx, resolving key through the
// one-entry cache.
func (h *Handle) LockCtx(ctx context.Context, key uint64) error {
	c := cancelFromCtx(ctx)
	if c.Never() {
		h.Lock(key)
		return nil
	}
	if locks.LockWithCancel(h.entry(key).exclusive(), c) {
		return nil
	}
	return abortErr(ctx, c)
}

// TryLockFor is the handle twin of Service.TryLockFor.
func (h *Handle) TryLockFor(key uint64, d time.Duration) bool {
	if d <= 0 {
		return h.TryLock(key)
	}
	return locks.LockWithCancel(h.entry(key).exclusive(), &locks.Cancel{Deadline: time.Now().Add(d)})
}

// RLockCtx is the handle twin of Service.RLockCtx.
func (h *Handle) RLockCtx(ctx context.Context, key uint64) error {
	c := cancelFromCtx(ctx)
	if c.Never() {
		h.RLock(key)
		return nil
	}
	if locks.RLockWithCancel(h.rw(key), c) {
		return nil
	}
	return abortErr(ctx, c)
}

// TryRLockFor is the handle twin of Service.TryRLockFor.
func (h *Handle) TryRLockFor(key uint64, d time.Duration) bool {
	if d <= 0 {
		return h.TryRLock(key)
	}
	return locks.RLockWithCancel(h.rw(key), &locks.Cancel{Deadline: time.Now().Add(d)})
}

// WithLock is the handle twin of Service.WithLock: fn runs under key's
// lock, and a panic releases before propagating.
func (h *Handle) WithLock(key uint64, fn func()) {
	h.Lock(key)
	defer h.Unlock(key)
	fn()
}

// WithRLock is the handle twin of Service.WithRLock.
func (h *Handle) WithRLock(key uint64, fn func()) {
	h.RLock(key)
	defer h.RUnlock(key)
	fn()
}
