package gls

import (
	"cmp"
	"fmt"
	"slices"

	"gls/internal/gid"
)

// This file is the batched multi-key surface: LockMany/TryLockMany/
// UnlockMany/WithLockMany. It is the in-process template for glsd's
// lock-many wire op — a client that needs N keys sends one batch instead
// of N round trips, and the server acquires them in a canonical order so
// two batches with overlapping key sets can never deadlock against each
// other.
//
// The discipline: keys are sorted and deduplicated before any lock is
// touched. Key order is a strict total order, so any two batches acquire
// their common keys in the same sequence — the classic ordered-acquisition
// argument. Duplicate keys are coalesced: LockMany(k, k) holds k once, and
// UnlockMany(k, k) releases it once, so a batch built from a messy key
// list stays balanced.

// manyRef is one resolved key of a batch.
type manyRef struct {
	key     uint64
	e       *entry
	created bool
}

// resolveMany maps a key list to its sorted, deduplicated entry refs.
// With create set, missing entries are built (GLK default, like Lock);
// otherwise a missing key panics with op's never-locked message — except
// in debug mode, where the nil entry is kept so the per-key debug release
// can report it instead (matching Unlock's split behavior).
func (s *Service) resolveMany(keys []uint64, create bool, op string) []manyRef {
	refs := make([]manyRef, 0, len(keys))
	for _, k := range keys {
		if k == 0 {
			panic("gls: zero key (the paper's NULL) is not a valid lock")
		}
		refs = append(refs, manyRef{key: k})
	}
	slices.SortFunc(refs, func(a, b manyRef) int { return cmp.Compare(a.key, b.key) })
	// A duplicate key is coalesced: held once.
	refs = slices.CompactFunc(refs, func(a, b manyRef) bool { return a.key == b.key })
	for i := range refs {
		if create {
			refs[i].e, refs[i].created = s.entryFor(refs[i].key, algoGLK)
		} else {
			refs[i].e = s.table.Get(refs[i].key)
			if refs[i].e == nil && s.dbg == nil {
				panic(fmt.Sprintf("gls: %s(%#x): key was never locked", op, refs[i].key))
			}
		}
	}
	return refs
}

// LockMany acquires the GLK locks for every key in one batch, creating
// locks on first use like Lock. Keys are acquired in key order and
// duplicates are coalesced, so concurrent LockMany calls with overlapping —
// even identical — key sets cannot deadlock against each other. Batches do
// NOT compose with out-of-order singles: a goroutine interleaving LockMany
// with hand-ordered Lock calls takes ordering back into its own hands,
// exactly as with nested Lock today. Release with UnlockMany.
func (s *Service) LockMany(keys ...uint64) {
	if len(keys) == 0 {
		return
	}
	if len(keys) == 1 {
		s.Lock(keys[0])
		return
	}
	refs := s.resolveMany(keys, true, "LockMany")
	if s.dbg != nil {
		me := gid.Get()
		for i := range refs {
			s.debugPreLock(me, refs[i].e, refs[i].created, algoGLK)
			s.debugLock(me, refs[i].e)
		}
		return
	}
	for i := range refs {
		refs[i].e.exclusive().Lock()
	}
}

// TryLockMany try-acquires every key's lock in batch order. It either
// acquires the whole (deduplicated) set and reports true, or acquires
// nothing: the first key that fails its TryLock makes the call release
// everything it had taken — in reverse order — and report false, so every
// failure path balances grants and releases exactly.
func (s *Service) TryLockMany(keys ...uint64) bool {
	if len(keys) == 0 {
		return true
	}
	if len(keys) == 1 {
		return s.TryLock(keys[0])
	}
	refs := s.resolveMany(keys, true, "TryLockMany")
	if s.dbg != nil {
		me := gid.Get()
		for i := range refs {
			s.debugPreLock(me, refs[i].e, refs[i].created, algoGLK)
			if !s.debugTryLock(me, refs[i].e) {
				for j := i - 1; j >= 0; j-- {
					s.debugUnlock(refs[j].key, refs[j].e)
				}
				return false
			}
		}
		return true
	}
	for i := range refs {
		if !refs[i].e.exclusive().TryLock() {
			for j := i - 1; j >= 0; j-- {
				refs[j].e.exclusive().Unlock()
			}
			return false
		}
	}
	return true
}

// UnlockMany releases every key's lock. The set is deduplicated with the
// same rule as LockMany (a key appearing twice is released once) and
// released in reverse batch order, unwinding the acquisition. A key that
// was never locked panics in normal mode and is reported per key in debug
// mode, like Unlock.
func (s *Service) UnlockMany(keys ...uint64) {
	if len(keys) == 0 {
		return
	}
	if len(keys) == 1 {
		s.Unlock(keys[0])
		return
	}
	refs := s.resolveMany(keys, false, "UnlockMany")
	if s.dbg != nil {
		for i := len(refs) - 1; i >= 0; i-- {
			s.debugUnlock(refs[i].key, refs[i].e)
		}
		return
	}
	for i := len(refs) - 1; i >= 0; i-- {
		refs[i].e.exclusive().Unlock()
	}
}

// WithLockMany runs fn while holding every key's lock, acquiring with
// LockMany and releasing with UnlockMany even if fn panics — the batched
// WithLock.
func (s *Service) WithLockMany(keys []uint64, fn func()) {
	s.LockMany(keys...)
	defer s.UnlockMany(keys...)
	fn()
}
