// Package memcached models the Memcached in-memory cache with the locking
// layout the paper evaluates and re-engineers (§5.1): a striped hash table
// (assoc) guarded by item locks, a slab allocator guarded by slabs_lock, a
// global LRU guarded by cache_lock, global statistics guarded by
// stats_lock, and the slab rebalancer's slabs_rebalance_lock, which the
// figures' Get/Set traffic never takes.
//
// The model reproduces the two real Memcached bugs GLS found (§5.1) when
// constructed with Buggy: the stats_lock is used without initialization,
// and the slabs_rebalance_lock is unlocked before it is ever acquired.
// Exactly as in the paper, both bugs are invisible under MUTEX (a blocking
// lock tolerates them) and corrupt fair spinlocks.
package memcached

import (
	"hash/maphash"

	"gls/internal/apps/appsync"
	"gls/locks"
)

// Lock role names, mirroring Memcached's lock variables.
const (
	RoleStats     = "stats_lock"
	RoleSlabs     = "slabs_lock"
	RoleCache     = "cache_lock"
	RoleRebalance = "slabs_rebalance_lock"
	roleItemFmt   = "item_lock"
)

// itemStripes is the item-lock stripe count. Memcached sizes its item lock
// table by worker count; the paper runs 8 server threads.
const itemStripes = 16

// Config configures the model.
type Config struct {
	// Provider supplies every lock (the pthread overloading seam).
	Provider appsync.Provider
	// Buckets is the assoc hash-table size (default 1<<14).
	Buckets int
	// CapacityItems bounds the cache; beyond it the LRU tail is evicted
	// (default 1<<16).
	CapacityItems int
	// Buggy plants the two §5.1 bugs.
	Buggy bool
}

// item is one cache entry, chained in the assoc table and linked in the LRU.
type item struct {
	key      string
	value    []byte
	hnext    *item // assoc chain
	prev, nx *item // LRU links
}

// Stats are Memcached's global counters (guarded by stats_lock).
type Stats struct {
	GetHits   uint64
	GetMisses uint64
	CmdSet    uint64
	Evictions uint64
	CurrItems uint64
}

// Cache is the Memcached model instance.
type Cache struct {
	cfg  Config
	seed maphash.Seed

	itemLocks []locks.Lock // striped assoc locks
	statsLock locks.Lock
	slabsLock locks.Lock
	cacheLock locks.Lock // LRU

	buckets []*item

	// LRU list, guarded by cacheLock.
	lruHead, lruTail *item
	nitems           int

	// slab allocator model state, guarded by slabsLock.
	slabBytes int64

	stats Stats // guarded by statsLock
}

// New builds the model, initializing every lock properly — except the two
// the paper's bugs touch when cfg.Buggy is set.
func New(cfg Config) *Cache {
	if cfg.Buckets <= 0 {
		cfg.Buckets = 1 << 14
	}
	if cfg.CapacityItems <= 0 {
		cfg.CapacityItems = 1 << 16
	}
	p := cfg.Provider
	c := &Cache{
		cfg:       cfg,
		seed:      maphash.MakeSeed(),
		itemLocks: make([]locks.Lock, itemStripes),
		buckets:   make([]*item, cfg.Buckets),
	}
	for i := range c.itemLocks {
		role := itemRole(i)
		p.InitLock(role)
		c.itemLocks[i] = p.GetLock(role)
	}
	p.InitLock(RoleSlabs)
	p.InitLock(RoleCache)
	c.slabsLock = p.GetLock(RoleSlabs)
	c.cacheLock = p.GetLock(RoleCache)

	if cfg.Buggy {
		// Bug 1 (assoc.c/thread.c in the paper): stats_lock is used without
		// ever being initialized.
		c.statsLock = p.GetLock(RoleStats)
		// Bug 2 (slabs.c): the rebalance lock is released before it is ever
		// acquired. MUTEX shrugs; TICKET corrupts; GLS debug reports it.
		p.InitLock(RoleRebalance)
		p.GetLock(RoleRebalance).Unlock()
	} else {
		p.InitLock(RoleStats)
		c.statsLock = p.GetLock(RoleStats)
		p.InitLock(RoleRebalance)
	}
	return c
}

func itemRole(i int) string {
	// Small fixed set of stripe names; fmt.Sprintf is avoided on purpose so
	// construction stays allocation-light.
	return roleItemFmt + "-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func (c *Cache) hash(key string) uint64 {
	return maphash.String(c.seed, key)
}

// Get returns the cached value for key, or nil.
func (c *Cache) Get(key string) []byte {
	h := c.hash(key)
	b := h % uint64(len(c.buckets))
	l := c.itemLocks[h%uint64(len(c.itemLocks))]

	l.Lock()
	it := c.buckets[b]
	for it != nil && it.key != key {
		it = it.hnext
	}
	var val []byte
	if it != nil {
		val = it.value
	}
	l.Unlock()

	if it != nil {
		// LRU touch, as memcached's do_item_update (rate-limited there;
		// unconditional here — the cache_lock contention is the point).
		c.cacheLock.Lock()
		c.lruUnlink(it)
		c.lruPush(it)
		c.cacheLock.Unlock()
	}

	c.statsLock.Lock()
	if it != nil {
		c.stats.GetHits++
	} else {
		c.stats.GetMisses++
	}
	c.statsLock.Unlock()
	return val
}

// Set stores value under key, evicting from the LRU tail when full.
func (c *Cache) Set(key string, value []byte) {
	// Slab allocation.
	c.slabsLock.Lock()
	c.slabBytes += int64(len(key) + len(value) + 48)
	c.slabsLock.Unlock()

	h := c.hash(key)
	b := h % uint64(len(c.buckets))
	l := c.itemLocks[h%uint64(len(c.itemLocks))]

	l.Lock()
	it := c.buckets[b]
	for it != nil && it.key != key {
		it = it.hnext
	}
	isNew := it == nil
	if isNew {
		it = &item{key: key, value: value, hnext: c.buckets[b]}
		c.buckets[b] = it
	} else {
		it.value = value
	}
	l.Unlock()

	c.cacheLock.Lock()
	if !isNew {
		c.lruUnlink(it)
	} else {
		c.nitems++
	}
	c.lruPush(it)
	var evict *item
	if c.nitems > c.cfg.CapacityItems {
		evict = c.lruTail
		if evict != nil {
			c.lruUnlink(evict)
			c.nitems--
		}
	}
	items := c.nitems // capture under cacheLock; nitems is cacheLock state
	c.cacheLock.Unlock()

	if evict != nil {
		c.removeFromAssoc(evict)
	}

	c.statsLock.Lock()
	c.stats.CmdSet++
	c.stats.CurrItems = uint64(items)
	if evict != nil {
		c.stats.Evictions++
	}
	c.statsLock.Unlock()
}

// removeFromAssoc deletes an evicted item from the hash table.
func (c *Cache) removeFromAssoc(victim *item) {
	h := c.hash(victim.key)
	b := h % uint64(len(c.buckets))
	l := c.itemLocks[h%uint64(len(c.itemLocks))]
	l.Lock()
	cur := c.buckets[b]
	var prev *item
	for cur != nil && cur != victim {
		prev, cur = cur, cur.hnext
	}
	if cur != nil {
		if prev == nil {
			c.buckets[b] = cur.hnext
		} else {
			prev.hnext = cur.hnext
		}
	}
	l.Unlock()
}

// lruPush inserts it at the LRU head. Caller holds cacheLock.
func (c *Cache) lruPush(it *item) {
	it.prev = nil
	it.nx = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = it
	}
	c.lruHead = it
	if c.lruTail == nil {
		c.lruTail = it
	}
}

// lruUnlink removes it from the LRU list. Caller holds cacheLock.
func (c *Cache) lruUnlink(it *item) {
	if it.prev != nil {
		it.prev.nx = it.nx
	} else if c.lruHead == it {
		c.lruHead = it.nx
	}
	if it.nx != nil {
		it.nx.prev = it.prev
	} else if c.lruTail == it {
		c.lruTail = it.prev
	}
	it.prev, it.nx = nil, nil
}
