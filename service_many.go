package gls

import (
	"fmt"
	"sort"

	"gls/internal/gid"
)

// This file is the batched multi-key surface: LockMany/TryLockMany/
// UnlockMany/WithLockMany. It is the in-process template for glsd's
// lock-many wire op — a client that needs N keys sends one batch instead
// of N round trips, and the server acquires them in a canonical order so
// two batches with overlapping key sets can never deadlock against each
// other.
//
// The discipline: keys are sorted by (shard, key) and deduplicated before
// any lock is touched. Shard-major order means each shard's entries are
// resolved in one run (one stretch of locality per shard table, the shape
// a per-shard server loop will want); the key tiebreak makes the order a
// strict total order, so any two batches acquire their common keys in the
// same sequence — the classic ordered-acquisition argument. Duplicate keys
// are coalesced: LockMany(k, k) holds k once, and UnlockMany(k, k)
// releases it once, so a batch built from a messy key list stays balanced.

// manyRef is one resolved key of a batch.
type manyRef struct {
	key     uint64
	shard   uint32
	e       *entry
	created bool
}

// sortRefs orders a batch by (shard, key). Small batches — the common case
// for a multi-key critical section — use insertion sort to stay off the
// sort.Slice allocation; large ones fall through to it.
func sortRefs(refs []manyRef) {
	if len(refs) <= 16 {
		for i := 1; i < len(refs); i++ {
			for j := i; j > 0 && refLess(refs[j], refs[j-1]); j-- {
				refs[j], refs[j-1] = refs[j-1], refs[j]
			}
		}
		return
	}
	sort.Slice(refs, func(i, j int) bool { return refLess(refs[i], refs[j]) })
}

// refLess is the batch order: shard-major, key within shard.
func refLess(a, b manyRef) bool {
	if a.shard != b.shard {
		return a.shard < b.shard
	}
	return a.key < b.key
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
		refs = append(refs, manyRef{key: k, shard: uint32(s.shardIdx(k))})
	}
	sortRefs(refs)
	out := refs[:0]
	for i := range refs {
		if i > 0 && refs[i].key == out[len(out)-1].key {
			continue // duplicate key: coalesced, held once
		}
		out = append(out, refs[i])
	}
	refs = out
	for i := 0; i < len(refs); {
		sh := &s.shards[refs[i].shard]
		for ; i < len(refs) && &s.shards[refs[i].shard] == sh; i++ {
			if create {
				refs[i].e, refs[i].created = s.entryIn(sh, refs[i].key, algoGLK)
			} else {
				refs[i].e = sh.table.Get(refs[i].key)
				if refs[i].e == nil && s.dbg == nil {
					panic(fmt.Sprintf("gls: %s(%#x): key was never locked", op, refs[i].key))
				}
			}
		}
	}
	return refs
}

// LockMany acquires the GLK locks for every key in one batch, creating
// locks on first use like Lock. Keys are acquired in (shard, key) order and
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
