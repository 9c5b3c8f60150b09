// Package hamsterdb models the HamsterDB embedded key-value store as the
// paper evaluates it (§5.2): a B+tree engine whose public API is serialized
// behind a single global lock. "The HamsterDB embedded key-value store
// relies on a global lock. Of course, the contention on that lock is very
// high. ... with N worker threads, the average queuing behind the lock is
// always close to N−1."
//
// The global lock is obtained from an appsync.Provider, so the store runs
// under MUTEX, TICKET, MCS, or GLK without modification.
package hamsterdb

import (
	"time"

	"gls/internal/apps/appsync"
	"gls/internal/cycles"
	"gls/internal/harness"
	"gls/internal/xrand"
	"gls/locks"
)

// RoleGlobal is the single lock's role name.
const RoleGlobal = "ham_global_lock"

// perOpWorkCycles models HamsterDB's per-operation bookkeeping (journal,
// page cache accounting) beyond the pure tree operation.
const perOpWorkCycles = 400

// DB is the HamsterDB model.
type DB struct {
	global locks.Lock
	tree   *btree
}

// New builds the store with its global lock from p.
func New(p appsync.Provider) *DB {
	p.InitLock(RoleGlobal)
	return &DB{
		global: p.GetLock(RoleGlobal),
		tree:   newBTree(),
	}
}

// Insert upserts a record.
func (db *DB) Insert(key uint64, value []byte) {
	db.global.Lock()
	db.tree.insert(key, value)
	cycles.Wait(perOpWorkCycles)
	db.global.Unlock()
}

// Find returns the value for key, or nil.
func (db *DB) Find(key uint64) []byte {
	db.global.Lock()
	v := db.tree.find(key)
	cycles.Wait(perOpWorkCycles)
	db.global.Unlock()
	return v
}

// WorkloadConfig is the paper's HamsterDB test: "three tests with random
// reads/writes, varying the read-to-write ratio among 10% (WT), 50%
// (WT/RD), and 90% (RD)" with 2 threads (the store does not scale past
// its global lock).
type WorkloadConfig struct {
	ReadRatio float64
	Keys      int
	Threads   int
	Duration  time.Duration
	Seed      uint64
}

// RunWorkload drives the store and returns total operations and elapsed
// time.
func RunWorkload(db *DB, w WorkloadConfig) (uint64, time.Duration) {
	if w.Keys <= 0 {
		w.Keys = 1 << 16
	}
	if w.Threads <= 0 {
		w.Threads = 2
	}
	value := make([]byte, 64)
	// Preload half the key space.
	pre := xrand.NewSplitMix64(w.Seed ^ 0xabcd)
	for i := 0; i < w.Keys/2; i++ {
		db.Insert(pre.Uintn(uint64(w.Keys)), value)
	}

	res := harness.Drive(w.Threads, w.Duration, w.Seed, func(wk *harness.Worker) {
		for wk.Next() {
			k := wk.Rng.Uintn(uint64(w.Keys))
			if wk.Rng.Bool(w.ReadRatio) {
				db.Find(k)
			} else {
				db.Insert(k, value)
			}
		}
	})
	return res.Ops, res.Elapsed
}
