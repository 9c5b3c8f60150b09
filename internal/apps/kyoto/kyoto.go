// Package kyoto models the Kyoto Cabinet NoSQL store in the three flavors
// the paper evaluates (§5.2): CACHE (an LRU cache), HT DB (a hash-table
// store), and B+TREE (a tree store).
//
// The locking layout matches the paper's description:
//
//   - all variants protect the main data structure with a highly-contended
//     global reader-writer lock (overloaded with the TTAS-based RW lock for
//     spinlock configurations, per footnote 7);
//   - the hash-table variants additionally use 16 mutexes, each protecting
//     a group of buckets, which "typically face very low contention"
//     (measured queuing < 0.1);
//   - CACHE "utilizes up to 10 levels of lock nesting" — expensive for MCS,
//     whose nesting needs a fresh queue node per level;
//   - HT DB performs roughly 10× more per-operation work than CACHE, so its
//     locks are touched correspondingly less often;
//   - the tree variant uses reader-writer locks on tree nodes plus
//     highly-contended mutexes for its node cache.
package kyoto

import (
	"time"

	"gls/internal/apps/appsync"
	"gls/internal/cycles"
	"gls/internal/harness"
	"gls/internal/xrand"
	"gls/locks"
)

// Variant selects the Kyoto Cabinet flavor.
type Variant int

// The three flavors of Table 2.
const (
	Cache Variant = iota + 1 // kyotocabinet::CacheDB
	HashDB
	TreeDB
)

// String names the variant as in the paper's figures.
func (v Variant) String() string {
	switch v {
	case Cache:
		return "CACHE"
	case HashDB:
		return "HT DB"
	case TreeDB:
		return "B+-TREE"
	default:
		return "Variant(?)"
	}
}

// Lock role names.
const (
	RoleGlobal    = "kc_global_rwlock"
	RoleBucketFmt = "kc_bucket_lock"
	RoleRecordFmt = "kc_record_lock"
	RoleNodeCache = "kc_nodecache_lock"
)

// buckets is the table size, a multiple of bucketGroups.
const buckets = 1 << 12

// Model sizing constants.
const (
	bucketGroups   = 16 // Kyoto's FOLSLOTNUM-style slot locks
	recordLockPool = 64 // CACHE nesting locks
	maxNesting     = 10 // paper: "up to 10 levels of lock nesting"
	nodeCachePool  = 2  // tree node-cache mutexes (highly contended)
	treeLevels     = 3  // modelled tree depth for node rwlocks
	nodeRWPool     = 32
)

// Per-operation work, in cycles. HT DB does ~10× the work of CACHE, which
// reproduces the paper's ~10× throughput gap and the resulting difference
// in lock traffic.
const (
	cacheWorkCycles = 250
	htWorkCycles    = 2500
	treeWorkCycles  = 800
)

// DB is one Kyoto Cabinet instance.
type DB struct {
	variant Variant

	global      locks.RWLock
	bucketLocks [bucketGroups]locks.Lock
	recordLocks [recordLockPool]locks.Lock
	nodeCache   [nodeCachePool]locks.Lock
	nodeRW      [nodeRWPool]locks.RWLock

	buckets []kvBucket
}

// kvBucket is a tiny chained hash bucket.
type kvBucket struct {
	entries []kvPair
}

type kvPair struct {
	key uint64
	val []byte
}

// Config configures the model.
type Config struct {
	Provider appsync.Provider
	Variant  Variant
}

// New builds a Kyoto model with all locks from the provider. The bucket
// count is a multiple of the lock-group count, so a bucket's group lock is
// a pure function of the bucket index: every key hashing to bucket b
// satisfies mix(key)%bucketGroups == b%bucketGroups.
func New(cfg Config) *DB {
	p := cfg.Provider
	db := &DB{
		variant: cfg.Variant,
		buckets: make([]kvBucket, buckets),
	}
	db.global = p.GetRWLock(RoleGlobal)
	for i := range db.bucketLocks {
		role := RoleBucketFmt + "-" + string(rune('a'+i))
		p.InitLock(role)
		db.bucketLocks[i] = p.GetLock(role)
	}
	for i := range db.recordLocks {
		role := RoleRecordFmt + "-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		p.InitLock(role)
		db.recordLocks[i] = p.GetLock(role)
	}
	for i := range db.nodeCache {
		role := RoleNodeCache + "-" + string(rune('a'+i))
		p.InitLock(role)
		db.nodeCache[i] = p.GetLock(role)
	}
	for i := range db.nodeRW {
		db.nodeRW[i] = p.GetRWLock(RoleGlobal + "-node-" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
	}
	return db
}

func mix(k uint64) uint64 {
	k = (k ^ (k >> 33)) * 0xff51afd7ed558ccd
	return k ^ (k >> 33)
}

// Get returns the value for key, or nil.
func (db *DB) Get(key uint64) []byte {
	db.global.RLock()
	defer db.global.RUnlock()
	switch db.variant {
	case TreeDB:
		return db.treeOp(key, nil, false)
	default:
		return db.hashOp(key, nil, false)
	}
}

// Set stores value under key.
func (db *DB) Set(key uint64, value []byte) {
	db.global.RLock()
	defer db.global.RUnlock()
	switch db.variant {
	case TreeDB:
		db.treeOp(key, value, true)
	default:
		db.hashOp(key, value, true)
	}
}

// hashOp performs a CACHE/HT get or set under the bucket-group lock, with
// CACHE's nested record locking.
func (db *DB) hashOp(key uint64, value []byte, write bool) []byte {
	h := mix(key)
	bl := db.bucketLocks[h%bucketGroups]
	bl.Lock()

	var nested []locks.Lock
	if db.variant == Cache {
		// LRU chain traversal: lock up to maxNesting record locks, in pool
		// order (deadlock-free by ordering).
		depth := int(h%maxNesting) + 1
		start := int(h % recordLockPool)
		nested = make([]locks.Lock, 0, depth)
		prev := -1
		for i := 0; i < depth; i++ {
			idx := (start + i*3) % recordLockPool
			if idx <= prev {
				break // keep strict ordering
			}
			prev = idx
			l := db.recordLocks[idx]
			l.Lock()
			nested = append(nested, l)
		}
	}

	b := &db.buckets[h%uint64(len(db.buckets))]
	var out []byte
	found := false
	for i := range b.entries {
		if b.entries[i].key == key {
			if write {
				b.entries[i].val = value
			} else {
				out = b.entries[i].val
			}
			found = true
			break
		}
	}
	if write && !found {
		b.entries = append(b.entries, kvPair{key: key, val: value})
	}

	if db.variant == Cache {
		cycles.Wait(cacheWorkCycles)
	} else {
		cycles.Wait(htWorkCycles)
	}

	for i := len(nested) - 1; i >= 0; i-- {
		nested[i].Unlock()
	}
	bl.Unlock()
	return out
}

// treeOp performs a B+TREE get or set: node rwlocks down the path, the
// contended node-cache mutex, then the record in the backing table.
//
// Each tree level latches from its own disjoint slice of the node-lock
// pool, and levels are always acquired root-to-leaf, so no goroutine can
// self-collide (read-latch then write-latch the same lock) and all
// goroutines agree on the acquisition order — the standard latch-coupling
// hierarchy.
func (db *DB) treeOp(key uint64, value []byte, write bool) []byte {
	h := mix(key)
	// Descend: read-latch interior nodes, one disjoint sub-pool per level.
	const perLevel = nodeRWPool / (treeLevels + 1)
	for lvl := 0; lvl < treeLevels-1; lvl++ {
		idx := lvl*perLevel + int((h>>uint(8*lvl))%perLevel)
		n := db.nodeRW[idx]
		n.RLock()
		defer n.RUnlock()
	}
	// Leaf: read or write latch, from the leaf sub-pool.
	leafBase := (treeLevels - 1) * perLevel
	leaf := db.nodeRW[leafBase+int((h>>16)%uint64(nodeRWPool-leafBase))]
	if write {
		leaf.Lock()
		defer leaf.Unlock()
	} else {
		leaf.RLock()
		defer leaf.RUnlock()
	}
	// Node cache: "mutexes for a custom cache of the tree nodes. These
	// mutexes are highly contended."
	cacheL := db.nodeCache[h%nodeCachePool]
	cacheL.Lock()
	cycles.Wait(treeWorkCycles / 2)
	cacheL.Unlock()

	b := &db.buckets[h%uint64(len(db.buckets))]
	bl := db.bucketLocks[h%bucketGroups]
	bl.Lock()
	defer bl.Unlock()
	var out []byte
	found := false
	for i := range b.entries {
		if b.entries[i].key == key {
			if write {
				b.entries[i].val = value
			} else {
				out = b.entries[i].val
			}
			found = true
			break
		}
	}
	if write && !found {
		b.entries = append(b.entries, kvPair{key: key, val: value})
	}
	cycles.Wait(treeWorkCycles / 2)
	return out
}

// setRatio is the workload's fraction of writes.
const setRatio = 0.3

// WorkloadConfig stresses the store "with a mix of operations" (Table 2;
// the paper uses 4 threads).
type WorkloadConfig struct {
	Keys     int
	Threads  int
	Duration time.Duration
	Seed     uint64
}

// RunWorkload drives the store, returning total operations and elapsed time.
func RunWorkload(db *DB, w WorkloadConfig) (uint64, time.Duration) {
	if w.Keys <= 0 {
		w.Keys = 1 << 14
	}
	if w.Threads <= 0 {
		w.Threads = 4
	}
	value := make([]byte, 64)
	pre := xrand.NewSplitMix64(w.Seed ^ 0x5eed)
	for i := 0; i < w.Keys/2; i++ {
		db.Set(pre.Uintn(uint64(w.Keys)), value)
	}

	res := harness.Drive(w.Threads, w.Duration, w.Seed, func(wk *harness.Worker) {
		for wk.Next() {
			k := wk.Rng.Uintn(uint64(w.Keys))
			if wk.Rng.Bool(setRatio) {
				db.Set(k, value)
			} else {
				db.Get(k)
			}
		}
	})
	return res.Ops, res.Elapsed
}
