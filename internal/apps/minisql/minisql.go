// Package minisql models MySQL/InnoDB as the paper evaluates it with
// Facebook's LinkBench (§5.2): a social-graph store (nodes and typed links)
// behind InnoDB-style latching — buffer-pool stripe latches, a log mutex, a
// transaction-system mutex, and striped row locks.
//
// The property the paper's figures hinge on is oversubscription: "In both
// workloads, MySQL oversubscribes threads to hardware contexts. The result
// is a livelock for both MCS and TICKET" while MUTEX survives and GLK
// adapts. The model therefore runs its worker pool with more goroutines
// than GOMAXPROCS, and the SSD configuration adds simulated I/O waits on
// buffer-pool misses ("many locks in MySQL are lightly contended, thus
// using ticket mode instead of mutex" wins there).
package minisql

import (
	"sync/atomic"
	"time"

	"gls/internal/apps/appsync"
	"gls/internal/cycles"
	"gls/internal/harness"
	"gls/internal/xrand"
	"gls/locks"
)

// Lock role names.
const (
	RoleLog    = "innodb_log_mutex"
	RoleTrxSys = "innodb_trx_sys"
	RoleBufFmt = "innodb_bufpool"
	RoleRowFmt = "innodb_rowlock"
)

// Pool sizes.
const (
	bufPoolStripes = 16
	rowLockStripes = 64
)

// Workload kind: in-memory or SSD-backed dataset (Table 2: MEM and SSD).
type Mode int

// The two LinkBench configurations.
const (
	MEM Mode = iota + 1
	SSD
)

// String names the mode as in Figure 14/15.
func (m Mode) String() string {
	if m == MEM {
		return "MEM"
	}
	return "SSD"
}

// link is one graph edge.
type link struct {
	id2  uint64
	data uint32
}

// node is one graph object.
type node struct {
	version uint64
	links   []link
}

// DB is the graph store.
type DB struct {
	mode Mode

	logLock    locks.Lock
	trxLock    locks.Lock
	bufLatches [bufPoolStripes]locks.Lock
	rowLocks   [rowLockStripes]locks.Lock

	nodes []node // fixed id space; id = index

	commits atomic.Uint64
	ioWaits atomic.Uint64 // simulated SSD reads
}

// Config sizes the store.
type Config struct {
	Provider appsync.Provider
	Mode     Mode
	// Nodes is the graph size (default 1<<14).
	Nodes int
}

// New builds the store with its latches from the provider.
func New(cfg Config) *DB {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1 << 14
	}
	if cfg.Mode == 0 {
		cfg.Mode = MEM
	}
	p := cfg.Provider
	db := &DB{mode: cfg.Mode, nodes: make([]node, cfg.Nodes)}
	for _, role := range []string{RoleLog, RoleTrxSys} {
		p.InitLock(role)
	}
	db.logLock = p.GetLock(RoleLog)
	db.trxLock = p.GetLock(RoleTrxSys)
	for i := range db.bufLatches {
		role := RoleBufFmt + "-" + string(rune('a'+i))
		p.InitLock(role)
		db.bufLatches[i] = p.GetLock(role)
	}
	for i := range db.rowLocks {
		role := RoleRowFmt + "-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		p.InitLock(role)
		db.rowLocks[i] = p.GetLock(role)
	}
	return db
}

// Commits returns committed transactions.
func (db *DB) Commits() uint64 { return db.commits.Load() }

func mix(k uint64) uint64 {
	k = (k ^ (k >> 33)) * 0xff51afd7ed558ccd
	return k ^ (k >> 33)
}

// bufferFetch models a buffer-pool page access: stripe latch, and on the
// SSD configuration an occasional simulated read I/O performed *outside*
// the latch (InnoDB releases the latch during reads), which blocks the
// goroutine like a real pread.
func (db *DB) bufferFetch(pg uint64, rng *xrand.SplitMix64) {
	l := db.bufLatches[pg%bufPoolStripes]
	l.Lock()
	cycles.Wait(120)
	l.Unlock()
	if db.mode == SSD && rng.Bool(0.05) {
		db.ioWaits.Add(1)
		time.Sleep(40 * time.Microsecond) // one SSD read
	}
}

// logWrite models appending to the redo log under the log mutex.
func (db *DB) logWrite() {
	db.logLock.Lock()
	cycles.Wait(180)
	db.logLock.Unlock()
}

// beginTrx / endTrx touch the transaction-system mutex.
func (db *DB) beginTrx() {
	db.trxLock.Lock()
	cycles.Wait(60)
	db.trxLock.Unlock()
}

// GetNode reads a node (LinkBench get_node).
func (db *DB) GetNode(id uint64, rng *xrand.SplitMix64) uint64 {
	id %= uint64(len(db.nodes))
	db.beginTrx()
	db.bufferFetch(mix(id), rng)
	rl := db.rowLocks[mix(id)%rowLockStripes]
	rl.Lock()
	v := db.nodes[id].version
	cycles.Wait(80)
	rl.Unlock()
	db.commits.Add(1)
	return v
}

// UpdateNode rewrites a node (LinkBench update_node).
func (db *DB) UpdateNode(id uint64, rng *xrand.SplitMix64) {
	id %= uint64(len(db.nodes))
	db.beginTrx()
	db.bufferFetch(mix(id), rng)
	rl := db.rowLocks[mix(id)%rowLockStripes]
	rl.Lock()
	db.nodes[id].version++
	cycles.Wait(120)
	rl.Unlock()
	db.logWrite()
	db.commits.Add(1)
}

// AddLink inserts an edge (LinkBench add_link).
func (db *DB) AddLink(id1, id2 uint64, rng *xrand.SplitMix64) {
	id1 %= uint64(len(db.nodes))
	db.beginTrx()
	db.bufferFetch(mix(id1), rng)
	db.bufferFetch(mix(id2), rng)
	rl := db.rowLocks[mix(id1)%rowLockStripes]
	rl.Lock()
	n := &db.nodes[id1]
	n.links = append(n.links, link{id2: id2, data: uint32(id2)})
	if len(n.links) > 64 {
		n.links = n.links[1:] // bound memory like a retention window
	}
	cycles.Wait(150)
	rl.Unlock()
	db.logWrite()
	db.commits.Add(1)
}

// GetLinkList reads a node's out-edges (LinkBench get_link_list, the
// dominant operation).
func (db *DB) GetLinkList(id1 uint64, rng *xrand.SplitMix64) int {
	id1 %= uint64(len(db.nodes))
	db.beginTrx()
	db.bufferFetch(mix(id1), rng)
	rl := db.rowLocks[mix(id1)%rowLockStripes]
	rl.Lock()
	n := len(db.nodes[id1].links)
	cycles.Wait(100 + uint64(n)*5)
	rl.Unlock()
	db.commits.Add(1)
	return n
}

// CountLinks returns the out-degree (LinkBench count_link).
func (db *DB) CountLinks(id1 uint64, rng *xrand.SplitMix64) int {
	return db.GetLinkList(id1, rng)
}

// keySkew is the node-popularity zipf alpha: LinkBench's access pattern is
// heavily skewed.
const keySkew = 0.9

// WorkloadConfig drives the LinkBench-like mix. Threads should exceed
// GOMAXPROCS to reproduce the paper's oversubscription (MySQL's thread
// pool outnumbers cores).
type WorkloadConfig struct {
	Threads  int
	Duration time.Duration
	Seed     uint64
}

// RunWorkload runs the operation mix and returns committed transactions
// and elapsed time. The mix approximates LinkBench: ~51% get_link_list,
// 13% get_node, 12% add_link, 9% count_link, 8% update_node, 7% misc
// writes.
func RunWorkload(db *DB, w WorkloadConfig) (uint64, time.Duration) {
	if w.Threads <= 0 {
		w.Threads = 8
	}
	before := db.Commits()
	res := harness.Drive(w.Threads, w.Duration, w.Seed, func(wk *harness.Worker) {
		rng := &wk.Rng
		zipf := xrand.NewZipf(len(db.nodes), keySkew)
		for wk.Next() {
			id1 := uint64(zipf.Next(rng))
			r := rng.Float64()
			switch {
			case r < 0.51:
				db.GetLinkList(id1, rng)
			case r < 0.64:
				db.GetNode(id1, rng)
			case r < 0.76:
				db.AddLink(id1, rng.Next(), rng)
			case r < 0.85:
				db.CountLinks(id1, rng)
			case r < 0.93:
				db.UpdateNode(id1, rng)
			default:
				db.AddLink(id1, rng.Next(), rng)
			}
		}
	})
	return db.Commits() - before, res.Elapsed
}
