package gls

import (
	"fmt"

	"gls/glk"
)

// This file is the service surface of glsrw: reader-writer locking with
// the same key-addressed, auto-creating contract as the exclusive entry
// points. A key becomes a reader-writer key on its first use through this
// surface (RLock, TryRLock or InitRWLock); from then on
// the exclusive entry points operate on the same lock's write side — the
// paper's gls_lock(k) is the write lock of an RW key — and the read
// entry points hand out shares. Using the read surface on a key that was
// introduced as exclusive panics: the species mismatch is the Go analogue
// of handing a pthread_mutex_t to pthread_rwlock_rdlock, and GLS turns
// that undefined behavior into a clean failure (debug mode reports the
// issue first).

// newRWEntry builds the reader-writer lock object for a key on first use —
// the RW twin of newEntry, with the same one-time telemetry resolution: with
// a registry the adaptive lock gets the hooks compiled in via its config,
// without one it is built bare. The entry's exclusive lock aliases the
// write side.
func (s *Service) newRWEntry(key uint64) func() *entry {
	return func() *entry {
		cfg := s.opts.GLKRW
		if s.tele != nil {
			cfg = &glk.RWConfig{}
			if s.opts.GLKRW != nil {
				*cfg = *s.opts.GLKRW
			}
			cfg.Stats = s.tele.Register(key, "glkrw")
		}
		rw := glk.NewRW(cfg)
		return newBoxed(key, boxedHead{lock: rw, rw: rw})
	}
}

// entryForRW maps a key to its reader-writer entry, creating the adaptive
// lock on first use. It panics when the key is already mapped to an
// exclusive lock (debug mode reports the mismatch first).
func (s *Service) entryForRW(key uint64) (*entry, bool) {
	if key == 0 {
		panic("gls: zero key (the paper's NULL) is not a valid lock")
	}
	e, created := s.table.GetOrInsert(key, s.newRWEntry(key))
	if e.rwLock() == nil {
		s.reportSpeciesMismatch(key, "reader-writer use of a key mapped to an exclusive lock")
		panic(fmt.Sprintf("gls: key %#x is mapped to an exclusive lock; RW entry points need an RW key (use a fresh key or InitRWLock first)", key))
	}
	return e, created
}

// reportSpeciesMismatch surfaces a species mismatch through the debug
// reporter before the caller panics, so OnIssue consumers see it.
func (s *Service) reportSpeciesMismatch(key uint64, msg string) {
	if s.dbg == nil {
		return
	}
	s.flag(opLock, IssueAlgorithmMismatch, key, 0, msg)
}

// RLock acquires a read share of key's reader-writer lock, creating the
// lock (adaptive glsrw default) on first use — the read-side gls_lock.
//
// With zero options this is the same "negligible overhead" shape as Lock:
// one wait-free table Get plus the lock's read path (which, for the
// adaptive default, is one update on the caller's stripe line plus a read
// of the shared line).
func (s *Service) RLock(key uint64) {
	if s.dbg == nil {
		if e := s.table.Get(key); e != nil {
			rw := e.rwLock()
			if rw == nil {
				s.entryForRW(key) // panics with the species message
			}
			rw.RLock()
			return
		}
	}
	s.racquire(key, true)
}

// TryRLock try-acquires a read share of key's reader-writer lock.
func (s *Service) TryRLock(key uint64) bool {
	if s.dbg == nil {
		if e := s.table.Get(key); e != nil {
			rw := e.rwLock()
			if rw == nil {
				s.entryForRW(key)
			}
			return rw.TryRLock()
		}
	}
	return s.racquire(key, false)
}

// racquire is the general path of every read acquisition — first uses and
// debug-mode services: the RW entry, then a try (wait false) or a wait, and
// whether a share was taken.
func (s *Service) racquire(key uint64, wait bool) bool {
	e, created := s.entryForRW(key)
	if s.dbg != nil {
		return s.debugRAcquire(e, key, created, wait)
	}
	if !wait {
		return e.rwLock().TryRLock()
	}
	e.rwLock().RLock()
	return true
}

// RUnlock releases a read share of key's lock. Releasing a key that was
// never locked (or that is mapped to an exclusive lock) panics in normal
// mode and is reported as an issue in debug mode.
func (s *Service) RUnlock(key uint64) {
	if key == 0 {
		panic("gls: zero key (the paper's NULL) is not a valid lock")
	}
	e := s.table.Get(key)
	if s.dbg == nil {
		if e == nil {
			panic(fmt.Sprintf("gls: RUnlock(%#x): key was never locked", key))
		}
		rw := e.rwLock()
		if rw == nil {
			panic(fmt.Sprintf("gls: RUnlock(%#x): key is mapped to an exclusive lock", key))
		}
		rw.RUnlock()
		return
	}
	s.debugRUnlock(key, e)
}

// InitRWLock pre-creates the adaptive reader-writer lock for key — the
// analogue of pthread_rwlock_init, and the way to fix a key's species
// before any exclusive entry point can auto-create it as exclusive.
func (s *Service) InitRWLock(key uint64) {
	s.entryForRW(key)
	if s.dbg != nil {
		s.dbg.markInitialized(key)
	}
}

// IsRWKey reports whether key is currently mapped to a reader-writer lock.
func (s *Service) IsRWKey(key uint64) bool {
	e := s.table.Get(key)
	return e != nil && e.rwLock() != nil
}

// GLKRWStats returns the adaptive-RW statistics for key's lock, if the key
// is mapped to an adaptive (default) reader-writer lock — the RW twin of
// GLKStats, supporting the same transition-tracing workflow.
func (s *Service) GLKRWStats(key uint64) (glk.RWStats, bool) {
	e := s.table.Get(key)
	if e == nil || e.rwLock() == nil {
		return glk.RWStats{}, false
	}
	return e.boxed().rw.Stats(), true
}
