package gls

import (
	"fmt"

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
// Free interaction: the epoch protocol below makes a Handle exactly as
// safe against Service.Free as the direct API, no more and no less. A
// cached pair can never be used after its key's Free has *begun* (the
// epoch check catches it and re-resolves through the table), so a Handle
// never resurrects a freed lock object. What the epoch cannot repair is
// the Free contract itself: freeing a key that is held, queued on, or
// mid-acquisition splits the key across two lock objects regardless of
// which accessor touched it — see the quiescence contract on
// Service.Free. A Handle.Unlock after such a Free releases the new
// incarnation, exactly like Service.Unlock would.
type Handle struct {
	s        *Service
	lastKey  uint64
	lastLock locks.Lock
	// epoch is the owning shard's free counter at the time the pair was
	// cached (noFreeEpoch when a Free was in flight then, which never
	// validates). A Free of any key in the same shard bumps the shard's
	// freeStart before it touches the table, so a stale cache — key
	// freed, then possibly remapped to a brand-new lock — is detected by
	// two atomic loads of one line instead of a table lookup. Frees in
	// *other* shards leave these counters (and therefore this cache)
	// alone; that isolation is what Options.NumShards buys. Frees are
	// rare; cache hits stay two compares in the common case.
	epoch uint64
	// lastShard is the shard the cached key routes to — cached alongside
	// the pair so a hit validates against the right epoch counters
	// without rehashing the key (key == lastKey implies the shard is
	// unchanged: shard routing is a pure function of the key).
	lastShard *shard
	// lastRW is the cached lock's read-side interface, non-nil exactly
	// when the cached key is a reader-writer key; RLock/RUnlock hit the
	// same one-entry cache as Lock/Unlock (the glsrw read path is
	// latency-sensitive in exactly the way Figure 11 measures for the
	// exclusive one). It sits after the exclusive-path fields so their
	// offsets — and the exclusive hit path's memory layout — stay stable.
	lastRW locks.RWLock
	// misses counts cache misses — every lookup that had to resolve
	// through the table, including each key's first use. A handle is
	// single-goroutine by contract, so this is a plain field; CacheMisses
	// exposes it, and TestFreeEpochShardIsolation asserts it stays
	// *exactly* flat in shards no Free touches.
	misses uint64
	// Every op writes the cache (a miss) or reads it between two lock
	// operations (a hit), so a Handle owns its cache lines: the 72 bytes
	// above are padded to two whole lines, which the allocator's 128-byte
	// size class also aligns. Without the pad two handles allocated back
	// to back — one per goroutine, as asked above — share a line, and each
	// goroutine's ops cost twice as much (TestHandleLayout).
	_ [2*pad.CacheLineSize - 72]byte
}

// noFreeEpoch is the cache-epoch sentinel for pairs resolved while a Free
// was in flight: it never matches a real counter value, so such a pair is
// cached but never trusted. (The free counters would need 2^64 Frees to
// reach it.)
const noFreeEpoch = ^uint64(0)

// NewHandle returns a fresh handle bound to s.
func (s *Service) NewHandle() *Handle {
	return &Handle{s: s}
}

// cacheHit reports whether the cached pair may be used for key.
//
// The staleness protocol (see shard.freeStart): a hit requires both of the
// cached shard's free counters to equal the cached epoch — freeStart
// catches any Free in that shard that has so much as begun since the pair
// was resolved, freeDone catches Frees that were already mid-delete back
// then. Frees in other shards move other counters and cannot miss us.
func (h *Handle) cacheHit(key uint64) bool {
	if key != h.lastKey || h.lastLock == nil {
		return false
	}
	e := h.lastShard.freeDone.Load()
	return e == h.epoch && h.lastShard.freeStart.Load() == e
}

// cacheStore records a resolved entry while its shard's free counters read
// (start, done). start and done must have been loaded, in that field order
// done then start, *before* resolving the lock: the pair is only trusted
// when no Free was in flight across the resolution, so a lookup racing a
// delete can cache but never hit. Both interfaces of the entry are cached
// (rw is nil for exclusive keys), so a key's read and write paths share the
// one cache slot.
func (h *Handle) cacheStore(key uint64, sh *shard, e *entry, start, done uint64) {
	epoch := start
	if start != done {
		epoch = noFreeEpoch // a Free was in flight: never trust this pair
	}
	h.lastKey, h.lastLock, h.lastRW, h.lastShard, h.epoch = key, e.lock, e.rw, sh, epoch
}

// CacheMisses reports how many lookups through this handle missed the
// one-entry cache and resolved via the table, including each key's first
// use. It is the exact observable behind the per-shard epoch isolation
// claim: park a handle on a hot key, Free-churn keys in other shards, and
// this counter must not move (TestFreeEpochShardIsolation; glsmark's
// gls.handle_miss_share reports the rate).
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
	sh := h.s.shardOf(key)
	done := sh.freeDone.Load()
	start := sh.freeStart.Load()
	e, _ := h.s.entryIn(sh, key, algoGLK)
	h.cacheStore(key, sh, e, start, done)
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
	sh := h.s.shardOf(key)
	done := sh.freeDone.Load()
	start := sh.freeStart.Load()
	e := sh.table.Get(key)
	if e == nil {
		panic(fmt.Sprintf("gls: Unlock(%#x): key was never locked", key))
	}
	h.cacheStore(key, sh, e, start, done)
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
	sh := h.s.shardOf(key)
	done := sh.freeDone.Load()
	start := sh.freeStart.Load()
	e, _ := h.s.entryRWIn(sh, key, algoGLKRW)
	h.cacheStore(key, sh, e, start, done)
	return e.rw
}

// lookupExistingRW is lookupRW's release-path twin: a miss that finds no
// mapping (or an exclusive mapping) is a caller bug, never a first use.
func (h *Handle) lookupExistingRW(key uint64) locks.RWLock {
	if h.cacheHit(key) && h.lastRW != nil {
		return h.lastRW
	}
	h.misses++
	sh := h.s.shardOf(key)
	done := sh.freeDone.Load()
	start := sh.freeStart.Load()
	e := sh.table.Get(key)
	if e == nil {
		panic(fmt.Sprintf("gls: RUnlock(%#x): key was never locked", key))
	}
	if e.rw == nil {
		panic(fmt.Sprintf("gls: RUnlock(%#x): key is mapped to an exclusive lock", key))
	}
	h.cacheStore(key, sh, e, start, done)
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

// Invalidate drops the cached pair. Since Free already advances the owning
// shard's epoch the cache checks, this is only needed when the caller
// wants to drop the reference to the lock object itself (e.g. to let a
// freed lock be collected promptly).
func (h *Handle) Invalidate() {
	h.lastKey, h.lastLock, h.lastRW, h.lastShard = 0, nil, nil, nil
}
