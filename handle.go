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
// repeated use of one lock hits the cache on the lock side too. What it
// remembers is the table entry, which for a default key is the lock (see
// entry): a hit is one load of the line it then locks, and a direct call.
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
// entry/entryStats).
type handleCache struct {
	s       *Service
	lastKey uint64
	// last is the entry lastKey resolved to. For a default key it is the
	// lock, so a hit tests the dead mark on the very line it then locks;
	// for any other key that line holds the lock's interfaces.
	last *entry
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
// key's, and no Free has retired it (entryDead). The key compare goes
// first: a miss then costs one compare, and with the nil test ahead of it
// two workers walking shuffled keys ran 6 % slower (86 against 79–81 ns/op
// over 20 alternating runs).
func (h *Handle) cacheHit(key uint64) bool {
	return key == h.lastKey && h.last != nil && !h.last.dead()
}

// CacheMisses reports how many lookups through this handle missed the
// one-entry cache and resolved via the table, including each key's first
// use. It is the exact observable behind the invalidation claim: park a
// handle on a hot key, Free-churn any other keys, and this counter must not
// move (TestFreeInvalidatesOnlyItsKey; glsmark's gls.handle_miss_share
// reports the rate).
func (h *Handle) CacheMisses() uint64 { return h.misses }

// A Handle operation resolves its entry in one step — cacheHit, which
// inlines, and on a miss one of the functions below: miss to acquire,
// missHeld to release, rw and heldRW for the read side — and then calls
// the lock the entry holds, directly when that is the entry's own. An
// entry that a Free is retiring right now is cached like any other: it is
// dead already, or will be before the key can map a successor.

// miss resolves key for an acquisition through the table, creating the
// default GLK key on a first use. A Free racing the acquisition itself
// (resolve, then the lock is freed and the key remapped before Lock
// returns) is the caller's lifecycle hazard, with or without a handle,
// exactly as in the paper.
func (h *Handle) miss(key uint64) *entry {
	h.misses++
	e := h.s.table.Get(key)
	if e == nil {
		e, _ = h.s.entryFor(key, algoGLK)
	}
	h.lastKey, h.last = key, e
	return e
}

// entry is the acquisition-side resolve step as a function, for the bounded
// acquisitions (service_ctx.go). Lock and TryLock spell it out: at cost 102
// against the inliner's 80 it would be a frame on every hit.
func (h *Handle) entry(key uint64) *entry {
	if h.cacheHit(key) {
		return h.last
	}
	return h.miss(key)
}

// Lock acquires the GLK lock for key.
func (h *Handle) Lock(key uint64) {
	e := h.last
	if !h.cacheHit(key) {
		e = h.miss(key)
	}
	if e.inline() {
		e.lk.Lock()
	} else {
		e.boxed().lock.Lock()
	}
}

// TryLock try-acquires the GLK lock for key.
func (h *Handle) TryLock(key uint64) bool {
	e := h.last
	if !h.cacheHit(key) {
		e = h.miss(key)
	}
	if e.inline() {
		return e.lk.TryLock()
	}
	return e.boxed().lock.TryLock()
}

// missHeld resolves key for a release through the table, never creating an
// entry: a miss that finds no mapping is a caller bug, not a first use. It
// panics with Service.Unlock's (or RUnlock's) fast-path message; unlike the
// service it panics even in debug mode — handles bypass the debug checks by
// design (see the Handle doc), so there is no reporter to hand the issue
// to.
func (h *Handle) missHeld(key uint64, op string) *entry {
	h.misses++
	e := h.s.table.Get(key)
	if e == nil {
		panic(fmt.Sprintf("gls: %s(%#x): key was never locked", op, key))
	}
	h.lastKey, h.last = key, e
	return e
}

// Unlock releases the lock for key. With no lock nesting this always hits
// the cache (the last lock touched is the one being released). Unlocking a
// key that was never locked panics — a cache miss resolves through the
// table without creating an entry, so the handle cannot conjure (and then
// corrupt) a fresh lock the way releasing through a creating lookup would.
func (h *Handle) Unlock(key uint64) {
	e := h.last
	if !h.cacheHit(key) {
		e = h.missHeld(key, "Unlock")
	}
	if e.inline() {
		e.lk.Unlock()
	} else {
		e.boxed().lock.Unlock()
	}
}

// rw resolves key's reader-writer lock for an acquisition, creating the
// entry (adaptive glsrw default) on a first use. It panics when the key is
// mapped to an exclusive lock, like Service.RLock.
func (h *Handle) rw(key uint64) locks.RWLock {
	if h.cacheHit(key) {
		if rw := h.last.rwLock(); rw != nil {
			return rw
		}
	}
	h.misses++
	e := h.s.table.Get(key)
	if e == nil || e.rwLock() == nil {
		e, _ = h.s.entryForRW(key, algoGLKRW)
	}
	h.lastKey, h.last = key, e
	return e.boxed().rw
}

// heldRW is rw's release-path twin: a miss that finds no mapping (or an
// exclusive mapping) is a caller bug, never a first use.
func (h *Handle) heldRW(key uint64) locks.RWLock {
	if h.cacheHit(key) {
		if rw := h.last.rwLock(); rw != nil {
			return rw
		}
	}
	rw := h.missHeld(key, "RUnlock").rwLock()
	if rw == nil {
		panic(fmt.Sprintf("gls: RUnlock(%#x): key is mapped to an exclusive lock", key))
	}
	return rw
}

// RLock acquires a read share of the reader-writer lock for key.
func (h *Handle) RLock(key uint64) {
	h.rw(key).RLock()
}

// TryRLock try-acquires a read share of the reader-writer lock for key.
func (h *Handle) TryRLock(key uint64) bool {
	return h.rw(key).TryRLock()
}

// RUnlock releases a read share of the lock for key. With no lock nesting
// this always hits the cache, exactly like Unlock.
func (h *Handle) RUnlock(key uint64) {
	h.heldRW(key).RUnlock()
}

// Invalidate drops the cached entry. Since Free already marks it dead, this
// is only needed when the caller wants to drop the reference to the lock
// object itself (e.g. to let a freed lock be collected promptly).
func (h *Handle) Invalidate() {
	h.lastKey, h.last = 0, nil
}
