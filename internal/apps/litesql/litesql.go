// Package litesql models SQLite's concurrency structure as the paper
// evaluates it (§5.2): "SQLite uses a MUTEX for each database (e.g., each
// new connection), another for memory allocation, and a last one for
// protecting the database cache. However, the nodes of the B-tree are
// protected by custom reader-writer locks. The mutexes of SQLite become
// contended as we increase the number of connections."
//
// The workload is TPC-C-like over 100 warehouses (Table 2), driven through
// 8–64 connections; with enough connections the run is multiprogrammed,
// which is where fair spinlocks livelock and GLK must fall back to mutex
// mode.
package litesql

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
	RoleConnFmt = "sqlite_conn"
	RoleMalloc  = "sqlite_malloc"
	RolePgCache = "sqlite_pgcache"
	RoleDBNodes = "sqlite_btree_node"
)

// DefaultWarehouses matches the paper's TPC-C configuration.
const DefaultWarehouses = 100

// Per-warehouse sizes.
const (
	items     = 1000 // stock items
	customers = 300
)

// Per-operation work model, in cycles.
const (
	parseWorkCycles = 300 // SQL parse/plan under the connection mutex
	pageWorkCycles  = 150 // per page-cache access
	rowWorkCycles   = 120 // per row touched
)

// warehouse is the TPC-C per-warehouse state. The write transactions
// update it under the root latch; OrderStatus reads orders and a balance
// under whichever leaf latch its row hashes to, so those two words are
// atomics: the latches model SQLite's lock traffic, not the Go memory model.
type warehouse struct {
	ytd       int64
	stock     []int64 // per item
	orders    atomic.Uint64
	customers []atomic.Int64 // balances
}

// DB is one SQLite database file shared by all connections.
type DB struct {
	mallocLock locks.Lock
	cacheLock  locks.Lock
	// nodeLocks are the B-tree node reader-writer locks; writers take the
	// root exclusively (SQLite has a single writer at a time).
	nodeLocks []locks.RWLock

	warehouses []warehouse

	commits atomic.Uint64
}

// Config sizes the database.
type Config struct {
	Provider   appsync.Provider
	Warehouses int // default DefaultWarehouses
}

const nodeLockPool = 16

// New creates the database with locks from the provider.
func New(cfg Config) *DB {
	if cfg.Warehouses <= 0 {
		cfg.Warehouses = DefaultWarehouses
	}
	p := cfg.Provider
	p.InitLock(RoleMalloc)
	p.InitLock(RolePgCache)
	db := &DB{
		mallocLock: p.GetLock(RoleMalloc),
		cacheLock:  p.GetLock(RolePgCache),
		nodeLocks:  make([]locks.RWLock, nodeLockPool),
		warehouses: make([]warehouse, cfg.Warehouses),
	}
	for i := range db.nodeLocks {
		db.nodeLocks[i] = p.GetRWLock(RoleDBNodes + "-" + string(rune('a'+i)))
	}
	for w := range db.warehouses {
		db.warehouses[w].stock = make([]int64, items)
		for i := range db.warehouses[w].stock {
			db.warehouses[w].stock[i] = 100000
		}
		db.warehouses[w].customers = make([]atomic.Int64, customers)
	}
	return db
}

// Commits returns the number of committed transactions.
func (db *DB) Commits() uint64 { return db.commits.Load() }

// Conn is one SQLite connection; SQLite serializes each connection behind
// its own mutex.
type Conn struct {
	db  *DB
	mu  locks.Lock
	rng *xrand.SplitMix64
}

// NewConn opens connection number id.
func (db *DB) NewConn(p appsync.Provider, id int, seed uint64) *Conn {
	role := RoleConnFmt + "-" + itoa(id)
	p.InitLock(role)
	return &Conn{
		db:  db,
		mu:  p.GetLock(role),
		rng: xrand.NewSplitMix64(seed + uint64(id)*50021),
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// alloc models sqlite3_malloc under the allocator mutex.
func (db *DB) alloc() {
	db.mallocLock.Lock()
	cycles.Wait(60)
	db.mallocLock.Unlock()
}

// pageAccess models one page-cache probe under the cache mutex.
func (db *DB) pageAccess() {
	db.cacheLock.Lock()
	cycles.Wait(pageWorkCycles)
	db.cacheLock.Unlock()
}

// NewOrder runs a TPC-C new-order transaction: write transaction, root
// node exclusive.
func (c *Conn) NewOrder() {
	c.mu.Lock()
	cycles.Wait(parseWorkCycles)
	c.db.alloc()

	root := c.db.nodeLocks[0]
	root.Lock() // single writer
	w := &c.db.warehouses[c.rng.Uintn(uint64(len(c.db.warehouses)))]
	items := 5 + int(c.rng.Uintn(11))
	for i := 0; i < items; i++ {
		c.db.pageAccess()
		it := c.rng.Uintn(uint64(len(w.stock)))
		qty := int64(1 + c.rng.Uintn(10))
		w.stock[it] -= qty
		if w.stock[it] < 10 {
			w.stock[it] += 100000 // restock, as TPC-C does
		}
		cycles.Wait(rowWorkCycles)
	}
	w.orders.Add(1)
	root.Unlock()

	c.db.commits.Add(1)
	c.mu.Unlock()
}

// Payment runs a TPC-C payment transaction: short write.
func (c *Conn) Payment() {
	c.mu.Lock()
	cycles.Wait(parseWorkCycles)
	c.db.alloc()

	root := c.db.nodeLocks[0]
	root.Lock()
	w := &c.db.warehouses[c.rng.Uintn(uint64(len(c.db.warehouses)))]
	amount := int64(1 + c.rng.Uintn(5000))
	w.ytd += amount
	cust := c.rng.Uintn(uint64(len(w.customers)))
	w.customers[cust].Add(-amount)
	c.db.pageAccess()
	cycles.Wait(rowWorkCycles)
	root.Unlock()

	c.db.commits.Add(1)
	c.mu.Unlock()
}

// OrderStatus runs a read-only transaction: shared node latches.
func (c *Conn) OrderStatus() {
	c.mu.Lock()
	cycles.Wait(parseWorkCycles)

	h := c.rng.Next()
	n1 := c.db.nodeLocks[h%nodeLockPool]
	n1.RLock()
	c.db.pageAccess()
	w := &c.db.warehouses[h%uint64(len(c.db.warehouses))]
	_ = w.orders.Load()
	_ = w.customers[h%uint64(len(w.customers))].Load()
	cycles.Wait(rowWorkCycles)
	n1.RUnlock()

	c.db.commits.Add(1)
	c.mu.Unlock()
}

// CheckConsistency verifies TPC-C-style invariants: warehouse YTD equals
// the sum credited, and customer balances mirror payments. It reports
// whether total YTD equals -sum(balances) (every payment debits a customer
// and credits a warehouse).
func (db *DB) CheckConsistency() bool {
	var ytd, balances int64
	for w := range db.warehouses {
		ytd += db.warehouses[w].ytd
		for i := range db.warehouses[w].customers {
			balances += db.warehouses[w].customers[i].Load()
		}
	}
	return ytd == -balances
}

// The transaction mix: NewOrder, Payment, and OrderStatus for the rest.
const (
	newOrderRatio = 0.45
	paymentRatio  = 0.43
)

// WorkloadConfig drives TPC-C with N connections (Table 2: 8/16/32/64).
type WorkloadConfig struct {
	Connections int
	Duration    time.Duration
	Seed        uint64
}

// RunWorkload opens the connections and drives transactions, returning
// committed transactions and elapsed time.
func RunWorkload(db *DB, p appsync.Provider, w WorkloadConfig) (uint64, time.Duration) {
	if w.Connections <= 0 {
		w.Connections = 8
	}
	before := db.Commits()
	res := harness.Drive(w.Connections, w.Duration, w.Seed, func(wk *harness.Worker) {
		c := db.NewConn(p, wk.ID, w.Seed)
		for wk.Next() {
			r := c.rng.Float64()
			switch {
			case r < newOrderRatio:
				c.NewOrder()
			case r < newOrderRatio+paymentRatio:
				c.Payment()
			default:
				c.OrderStatus()
			}
		}
	})
	return db.Commits() - before, res.Elapsed
}
