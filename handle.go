package gls

import (
	"fmt"
	"unsafe"

	"gls/internal/pad"
	"gls/locks"
)

// Handle is a per-goroutine accessor implementing the paper's §4.1
// "Lock-cache Optimization": it remembers the last (key, lock) pair it
// touched, so the common pattern — acquire a lock and release that same lock
// with no other lock in between — skips the hash-table lookup entirely, and
// repeated use of one lock hits the cache on the lock side too.
//
// The paper caches per thread; goroutines have no cheap identity, so the
// cache lives in an explicit handle instead (see DESIGN.md). Create one
// Handle per goroutine with NewHandle; a Handle must not be shared.
//
// Handles bypass the debug checks; they are the latency-optimized path the
// paper's Figure 11 measures. Telemetry (and therefore profiling) is not
// bypassed: those hooks live inside the lock objects themselves, so handle
// acquisitions are observed like any other.
//
// Free interaction: a Handle is exactly as safe against Service.Free as the
// direct API, no more and no less. Free marks the entry it retires dead
// before the key can map anything else, and a hit requires the cached entry
// to be alive, so a Handle never resurrects a freed lock object — it
// re-resolves through the table, and only handles caching the freed key do.
// What the mark cannot repair is the Free contract itself: freeing a key
// that is held, queued on, or mid-acquisition splits the key across two
// lock objects regardless of which accessor touched it — see the quiescence
// contract on Service.Free. A Handle.Unlock after such a Free releases the
// new incarnation, exactly like Service.Unlock would.
type Handle struct {
	handleCache
	// Every op writes the cache (a miss) or reads it between two lock
	// operations (a hit), so a Handle owns its cache lines: padded to two
	// whole lines, which the allocator's 128-byte size class also aligns.
	// Handles allocated back to back — one per goroutine, as asked above —
	// then share neither a line (each op would cost twice as much) nor the
	// 128-byte pair an adjacent-line prefetcher fetches together
	// (TestHandleLayout).
	_ [2*pad.CacheLineSize - unsafe.Sizeof(handleCache{})]byte
}

// handleCache is the populated part of a Handle (same idiom as
// entry/entryHeader).
type handleCache struct {
	s       *Service
	lastKey uint64
	// last is the entry lastKey resolved to, consulted only for its dead
	// mark; lastLock and lastRW are its two interfaces, copied beside it so
	// a hit reaches the lock object without a dependent load through the
	// entry. lastRW is nil for an exclusive key, so RLock/RUnlock share the
	// one slot with Lock/Unlock.
	last     *entry
	lastLock locks.Lock
	lastRW   locks.RWLock
	// misses counts every lookup that had to resolve through the table,
	// including each key's first use. A handle is single-goroutine by
	// contract, so this is a plain field.
	misses uint64
}

// NewHandle returns a fresh handle bound to s.
func (s *Service) NewHandle() *Handle {
	return &Handle{handleCache: handleCache{s: s}}
}

// cacheHit reports whether the cached entry may be used for key: it is
// key's, and no Free has retired it (entryHeader.dead). The key compare goes
// first: a miss then costs one compare, and with the nil test ahead of it
// two workers walking shuffled keys ran 6 % slower (86 against 79–81 ns/op
// over 20 alternating runs).
func (h *Handle) cacheHit(key uint64) bool {
	return key == h.lastKey && h.last != nil && !h.last.dead.Load()
}

// cacheStore records a resolved entry. One that a Free is retiring right
// now is stored like any other: it is dead already, or will be before the
// key can map a successor.
func (h *Handle) cacheStore(key uint64, e *entry) {
	h.lastKey, h.last, h.lastLock, h.lastRW = key, e, e.lock, e.rw
}

// CacheMisses reports how many lookups through this handle missed the
// one-entry cache and resolved via the table, including each key's first
// use. It is the exact observable behind the invalidation claim: park a
// handle on a hot key, Free-churn any other keys, and this counter must not
// move (TestFreeInvalidatesOnlyItsKey; glsmark's gls.handle_miss_share
// reports the rate).
func (h *Handle) CacheMisses() uint64 { return h.misses }

// lookup resolves key via the one-entry cache, creating the entry on a
// first use. A Free racing the acquisition itself (resolve, then the lock
// is freed and the key remapped before Lock returns) is the caller's
// lifecycle hazard, with or without a handle, exactly as in the paper.
func (h *Handle) lookup(key uint64) locks.Lock {
	if h.cacheHit(key) {
		return h.lastLock
	}
	h.misses++
	e, _ := h.s.entryIn(h.s.shardOf(key), key, algoGLK)
	h.cacheStore(key, e)
	return e.lock
}

// Lock acquires the GLK lock for key.
func (h *Handle) Lock(key uint64) {
	h.lookup(key).Lock()
}

// TryLock try-acquires the GLK lock for key.
func (h *Handle) TryLock(key uint64) bool {
	return h.lookup(key).TryLock()
}

// lookupExisting resolves key via the cache without ever creating an
// entry, for the release path: a miss that finds no mapping is a caller
// bug, not a first use. It panics with Service.Unlock's fast-path message;
// unlike Service.Unlock it panics even when the service runs in debug mode
// — handles bypass the debug checks by design (see the Handle doc), so
// there is no reporter to hand the issue to.
func (h *Handle) lookupExisting(key uint64) locks.Lock {
	if h.cacheHit(key) {
		return h.lastLock
	}
	h.misses++
	e := h.s.tableFor(key).Get(key)
	if e == nil {
		panic(fmt.Sprintf("gls: Unlock(%#x): key was never locked", key))
	}
	h.cacheStore(key, e)
	return e.lock
}

// Unlock releases the lock for key. With no lock nesting this always hits
// the cache (the last lock touched is the one being released). Unlocking a
// key that was never locked panics — a cache miss resolves through the
// table without creating an entry, so the handle cannot conjure (and then
// corrupt) a fresh lock the way releasing through a creating lookup would.
func (h *Handle) Unlock(key uint64) {
	h.lookupExisting(key).Unlock()
}

// lookupRW resolves key's reader-writer lock via the one-entry cache,
// creating the entry (adaptive glsrw default) on a first use. It panics
// when the key is mapped to an exclusive lock, like Service.RLock.
func (h *Handle) lookupRW(key uint64) locks.RWLock {
	if h.cacheHit(key) && h.lastRW != nil {
		return h.lastRW
	}
	h.misses++
	e, _ := h.s.entryForRW(key, algoGLKRW)
	h.cacheStore(key, e)
	return e.rw
}

// lookupExistingRW is lookupRW's release-path twin: a miss that finds no
// mapping (or an exclusive mapping) is a caller bug, never a first use.
func (h *Handle) lookupExistingRW(key uint64) locks.RWLock {
	if h.cacheHit(key) && h.lastRW != nil {
		return h.lastRW
	}
	h.misses++
	e := h.s.tableFor(key).Get(key)
	if e == nil {
		panic(fmt.Sprintf("gls: RUnlock(%#x): key was never locked", key))
	}
	if e.rw == nil {
		panic(fmt.Sprintf("gls: RUnlock(%#x): key is mapped to an exclusive lock", key))
	}
	h.cacheStore(key, e)
	return e.rw
}

// RLock acquires a read share of the reader-writer lock for key.
func (h *Handle) RLock(key uint64) {
	h.lookupRW(key).RLock()
}

// TryRLock try-acquires a read share of the reader-writer lock for key.
func (h *Handle) TryRLock(key uint64) bool {
	return h.lookupRW(key).TryRLock()
}

// RUnlock releases a read share of the lock for key. With no lock nesting
// this always hits the cache, exactly like Unlock.
func (h *Handle) RUnlock(key uint64) {
	h.lookupExistingRW(key).RUnlock()
}

// Invalidate drops the cached entry. Since Free already marks it dead, this
// is only needed when the caller wants to drop the reference to the lock
// object itself (e.g. to let a freed lock be collected promptly).
func (h *Handle) Invalidate() {
	h.lastKey, h.last, h.lastLock, h.lastRW = 0, nil, nil, nil
}
