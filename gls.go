// Package gls implements GLS, the generic locking service of "Locking Made
// Easy" (Middleware'16) — a middleware that makes lock-based programming
// simple: callers lock and unlock arbitrary keys (any non-zero 64-bit value,
// typically an object's address) and GLS transparently maps each key to a
// lock object behind the scenes. There is nothing to declare, allocate, or
// initialize, and by default every lock is a GLK adaptive lock (package
// glk), so callers do not pick a lock algorithm either.
//
// The paper's Table 1 interface maps to Go as follows:
//
//	gls_init() / gls_destroy()    → New(Options{...}) / (*Service).Close
//	gls_lock/trylock/unlock(m)    → (*Service).Lock/TryLock/Unlock(key)
//	gls_A_lock(m), A ∈ {tas, ttas, ticket, mcs, clh, mutex}
//	                              → (*Service).LockWith(locks.A, key), etc.
//	gls_free(m)                   → (*Service).Free(key)
//
// Package-level Lock/TryLock/Unlock/Free operate on a lazily-created
// process-wide Service with default options.
//
// Beyond the paper's exclusive surface, read-mostly keys get reader-writer
// locking through RLock/TryRLock/RUnlock and InitRWLock: first use through
// that surface creates an adaptive glk.RWLock whose write side *is* the
// key's exclusive lock, so Lock(key) on an RW key is its write lock. A
// key's species — exclusive or reader-writer — is fixed at first use;
// InitRWLock pins it explicitly, and using the read surface on an exclusive
// key panics (see ExampleService_InitRWLock). The adaptive RW lock admits
// readers striped, phase-fair or write-preferring (blocking) as the
// workload demands (DESIGN.md §§9–10).
//
// Three extensions mirror and extend the paper's §4.2 and §4.3:
//
//   - debug mode (Options.Debug) detects uninitialized locks, double
//     locking, releasing a free lock, releasing a lock owned by another
//     goroutine, and deadlocks (via a background wait-for-graph walk);
//   - profile mode (Options.Profile) records per-lock queuing, acquisition
//     latency, and critical-section length, reported by ProfileReport;
//   - always-on telemetry (Options.Telemetry, package telemetry) feeds a
//     glstat registry — per-lock acquisitions, contention, sampled
//     latencies, GLK mode transitions — cheap enough for production, with
//     a /proc/lock_stat-style report, snapshot diffs, JSON export, and
//     HTTP/expvar endpoints (telemetry/telemetryhttp, cmd/glsstat).
package gls

import (
	"sync"
	"unsafe"
)

// KeyOf returns the GLS key identifying the object p points to — the Go
// analogue of passing the object's address to gls_lock. The key is the
// object's address: stable for the object's lifetime (Go's collector does
// not move heap objects), unique among live objects, and never dereferenced
// by GLS. As with the paper's GLS, remove the mapping with Free when the
// object's life ends; a later allocation may reuse the address.
func KeyOf[T any](p *T) uint64 {
	return uint64(uintptr(unsafe.Pointer(p)))
}

var (
	defaultOnce    sync.Once
	defaultService *Service
)

// Default returns the process-wide Service, creating it with default
// options on first use.
func Default() *Service {
	defaultOnce.Do(func() {
		defaultService = New(Options{})
	})
	return defaultService
}

// Lock acquires the GLK lock for key on the default service (gls_lock).
func Lock(key uint64) { Default().Lock(key) }

// TryLock try-acquires the GLK lock for key on the default service
// (gls_trylock).
func TryLock(key uint64) bool { return Default().TryLock(key) }

// Unlock releases the lock for key on the default service (gls_unlock).
func Unlock(key uint64) { Default().Unlock(key) }

// Free removes key's lock object from the default service (gls_free).
func Free(key uint64) { Default().Free(key) }
