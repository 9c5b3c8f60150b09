package gls

import "slices"

// This file is the batched multi-key surface: LockMany/TryLockMany/
// UnlockMany/WithLockMany. A batch is the single-key operation, once per
// key, in key order: there is no second acquire, try or release here, so
// every mode (debug, telemetry, profile) and every first-use rule of Lock,
// TryLock and Unlock holds for a batch because it is those calls.
//
// The discipline: keys are sorted and deduplicated before any lock is
// touched. Key order is a strict total order, so any two batches acquire
// their common keys in the same sequence — the classic ordered-acquisition
// argument. Duplicate keys are coalesced: LockMany(k, k) holds k once, and
// UnlockMany(k, k) releases it once, so a batch built from a messy key
// list stays balanced.

// batchStack is the batch size whose working copy of the keys lives on the
// caller's stack; a longer batch costs one allocation.
const batchStack = 16

// batchKeys copies keys (the caller's slice, left alone) into dst (a stack
// buffer) and returns them in batch order: ascending, each key once. It
// panics on a zero key, before the caller has touched any lock.
func batchKeys(dst, keys []uint64) []uint64 {
	if slices.Contains(keys, 0) {
		panic("gls: zero key (the paper's NULL) is not a valid lock")
	}
	dst = append(dst, keys...)
	slices.Sort(dst)
	return slices.Compact(dst)
}

// LockMany acquires the GLK locks for every key in one batch, creating
// locks on first use like Lock. Keys are acquired in key order and
// duplicates are coalesced, so concurrent LockMany calls with overlapping —
// even identical — key sets cannot deadlock against each other. Batches do
// NOT compose with out-of-order singles: a goroutine interleaving LockMany
// with hand-ordered Lock calls takes ordering back into its own hands,
// exactly as with nested Lock today. Release with UnlockMany.
func (s *Service) LockMany(keys ...uint64) {
	var buf [batchStack]uint64
	for _, k := range batchKeys(buf[:0], keys) {
		s.Lock(k)
	}
}

// TryLockMany try-acquires every key's lock in batch order. It either
// acquires the whole (deduplicated) set and reports true, or acquires
// nothing: the first key that fails its TryLock makes the call release
// everything it had taken — in reverse order — and report false, so every
// failure path balances grants and releases exactly.
func (s *Service) TryLockMany(keys ...uint64) bool {
	var buf [batchStack]uint64
	batch := batchKeys(buf[:0], keys)
	for i, k := range batch {
		if !s.TryLock(k) {
			s.unlockReversed(batch[:i])
			return false
		}
	}
	return true
}

// UnlockMany releases every key's lock. The set is deduplicated with the
// same rule as LockMany (a key appearing twice is released once) and
// released in reverse batch order, unwinding the acquisition. Each release
// is Unlock's: a key that was never locked panics in normal mode — when its
// turn comes, so the keys above it have been released by then — and is
// reported per key in debug mode.
func (s *Service) UnlockMany(keys ...uint64) {
	var buf [batchStack]uint64
	s.unlockReversed(batchKeys(buf[:0], keys))
}

// unlockReversed releases batch (in batch order) last key first.
func (s *Service) unlockReversed(batch []uint64) {
	for i := len(batch) - 1; i >= 0; i-- {
		s.Unlock(batch[i])
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
