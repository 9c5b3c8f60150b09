// Package clht implements the concurrent hash table GLS uses to map
// addresses to lock objects — a Go rendition of the lock-based CLHT of
// David/Guerraoui/Trigonakis (ASPLOS'15), with the properties the paper's
// §4.1 relies on:
//
//  1. cache-line-sized buckets (three key/value slots per bucket), so
//     operations typically touch one line;
//  2. searching for a key is read-only and wait-free;
//  3. failing to insert an existing key is also read-only and wait-free
//     (GetOrInsert probes before locking);
//  4. the table is resizable.
//
// Writers take a per-bucket spinlock; a resize briefly locks all buckets of
// the old table, copies, and swaps the table pointer (readers never block).
// Key 0 is reserved as the empty-slot sentinel — GLS rejects nil/zero keys
// at its API boundary, mirroring the paper's "any arbitrary value ... except
// for NULL".
package clht

import (
	"sync"
	"sync/atomic"

	"gls/internal/backoff"
	"gls/internal/pad"
)

// slotsPerBucket is the number of key/value pairs in one bucket. Three
// 8-byte keys + three 8-byte values + lock + next pointer ≈ one cache line,
// as in CLHT.
const slotsPerBucket = 3

// defaultBuckets is the initial bucket count (power of two).
const defaultBuckets = 64

// maxLoadFactor triggers a resize: average entries per top-level bucket.
const maxLoadFactor = 2.25 // 75% of 3 slots

// bucket is one hash bucket: a small open block plus an overflow chain.
type bucket[V any] struct {
	lock atomic.Uint32 // TTAS bucket writer lock
	keys [slotsPerBucket]atomic.Uint64
	vals [slotsPerBucket]atomic.Pointer[V]
	next atomic.Pointer[bucket[V]]
}

func (b *bucket[V]) acquire() {
	var s backoff.Spinner
	for {
		if b.lock.Load() == 0 && b.lock.CompareAndSwap(0, 1) {
			return
		}
		s.Spin()
	}
}

func (b *bucket[V]) release() { b.lock.Store(0) }

// table is one immutable-size generation of the hash table.
type table[V any] struct {
	buckets []bucket[V]
	mask    uint64
}

// Table is a resizable concurrent hash table from non-zero uint64 keys to
// *V. The zero value is not usable; call New.
//
// cur, the word every look-up loads, has the first cache line to itself: it
// changes at a resize, while count is written by every insert and delete —
// on a table whose keys come and go (glsd's), every operation. The struct is
// two whole lines, which the allocator aligns (TestTableLayout).
type Table[V any] struct {
	cur atomic.Pointer[table[V]]
	_   [pad.CacheLineSize - 8]byte

	count    atomic.Int64
	resizeMu sync.Mutex
	resizes  atomic.Uint64
	_        [pad.CacheLineSize - 24]byte
}

// New returns an empty table with capacity for at least sizeHint entries
// before the first resize. sizeHint ≤ 0 selects the default.
func New[V any](sizeHint int) *Table[V] {
	n := uint64(defaultBuckets)
	for float64(sizeHint) > float64(n)*maxLoadFactor {
		n *= 2
	}
	t := &Table[V]{}
	t.cur.Store(&table[V]{buckets: make([]bucket[V], n), mask: n - 1})
	return t
}

// hash mixes the key so that pointer-derived keys (aligned, low entropy in
// the low bits) spread across buckets. splitmix64 finalizer.
func hash(k uint64) uint64 {
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// Get returns the value mapped to key, or nil if absent. It is wait-free:
// no locks are taken and no writes are performed.
func (t *Table[V]) Get(key uint64) *V {
	if key == 0 {
		return nil
	}
	tab := t.cur.Load()
	b := &tab.buckets[hash(key)&tab.mask]
	for b != nil {
		for i := 0; i < slotsPerBucket; i++ {
			if b.keys[i].Load() != key {
				continue
			}
			v := b.vals[i].Load()
			// Re-check the key: a racing Delete may have cleared the slot
			// between our two loads, in which case v may belong to nobody.
			if v != nil && b.keys[i].Load() == key {
				return v
			}
		}
		b = b.next.Load()
	}
	return nil
}

// GetOrInsert returns the value mapped to key, inserting create() if the
// key is absent. The boolean reports whether an insert happened. create is
// called at most once, and only when the key is (still) absent under the
// bucket lock; this is the paper's modified clht_put that allocates the
// lock object on first use.
func (t *Table[V]) GetOrInsert(key uint64, create func() *V) (*V, bool) {
	if key == 0 {
		panic("clht: zero key")
	}
	// Wait-free fast path: most lookups hit existing keys once a system's
	// locks are warm ("this hash table converges to a read-mostly hash
	// table", paper §1).
	if v := t.Get(key); v != nil {
		return v, false
	}
	for {
		tab := t.cur.Load()
		b := &tab.buckets[hash(key)&tab.mask]
		b.acquire()
		if t.cur.Load() != tab {
			// Lost a race with a resize: retry against the new table.
			b.release()
			continue
		}
		// Re-scan under the lock; remember the first empty slot.
		var freeB *bucket[V]
		freeIdx := -1
		last := b
		for cb := b; cb != nil; cb = cb.next.Load() {
			last = cb
			for i := 0; i < slotsPerBucket; i++ {
				k := cb.keys[i].Load()
				if k == key {
					v := cb.vals[i].Load()
					b.release()
					return v, false
				}
				if k == 0 && freeIdx < 0 {
					freeB, freeIdx = cb, i
				}
			}
		}
		v := create()
		if v == nil {
			b.release()
			panic("clht: create returned nil")
		}
		if freeIdx < 0 {
			nb := &bucket[V]{}
			last.next.Store(nb)
			freeB, freeIdx = nb, 0
		}
		// Value before key: a concurrent reader that observes the key must
		// observe the value.
		freeB.vals[freeIdx].Store(v)
		freeB.keys[freeIdx].Store(key)
		b.release()
		n := t.count.Add(1)
		if float64(n) > float64(len(tab.buckets))*maxLoadFactor {
			t.resize(tab)
		}
		return v, true
	}
}

// Delete removes key from the table, returning the removed value or nil.
func (t *Table[V]) Delete(key uint64) *V {
	if key == 0 {
		return nil
	}
	for {
		tab := t.cur.Load()
		b := &tab.buckets[hash(key)&tab.mask]
		b.acquire()
		if t.cur.Load() != tab {
			b.release()
			continue
		}
		for cb := b; cb != nil; cb = cb.next.Load() {
			for i := 0; i < slotsPerBucket; i++ {
				if cb.keys[i].Load() != key {
					continue
				}
				v := cb.vals[i].Load()
				// Key before value: readers treat a matching key with nil
				// value as absent, so clearing in this order never exposes
				// a torn pair.
				cb.keys[i].Store(0)
				cb.vals[i].Store(nil)
				b.release()
				t.count.Add(-1)
				return v
			}
		}
		b.release()
		return nil
	}
}

// Len returns the number of entries (racy snapshot).
func (t *Table[V]) Len() int { return int(t.count.Load()) }

// Buckets returns the current top-level bucket count.
func (t *Table[V]) Buckets() int { return len(t.cur.Load().buckets) }

// Resizes returns how many table growths have happened.
func (t *Table[V]) Resizes() uint64 { return t.resizes.Load() }

// Range calls f for every entry until f returns false. It runs wait-free
// against the current table generation; entries inserted or deleted during
// iteration may or may not be observed.
func (t *Table[V]) Range(f func(key uint64, v *V) bool) {
	tab := t.cur.Load()
	for bi := range tab.buckets {
		for cb := &tab.buckets[bi]; cb != nil; cb = cb.next.Load() {
			for i := 0; i < slotsPerBucket; i++ {
				k := cb.keys[i].Load()
				if k == 0 {
					continue
				}
				v := cb.vals[i].Load()
				if v == nil || cb.keys[i].Load() != k {
					continue
				}
				if !f(k, v) {
					return
				}
			}
		}
	}
}

// resize doubles the table if old is still current. Writers block briefly
// (their bucket is locked while copied); readers are never blocked.
func (t *Table[V]) resize(old *table[V]) {
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	if t.cur.Load() != old {
		return // someone else already grew the table
	}
	// Lock every old bucket: writers drain and new ones wait, then retry
	// against the new table after the swap.
	for i := range old.buckets {
		old.buckets[i].acquire()
	}
	n := uint64(len(old.buckets)) * 2
	nt := &table[V]{buckets: make([]bucket[V], n), mask: n - 1}
	for bi := range old.buckets {
		for cb := &old.buckets[bi]; cb != nil; cb = cb.next.Load() {
			for i := 0; i < slotsPerBucket; i++ {
				k := cb.keys[i].Load()
				if k == 0 {
					continue
				}
				v := cb.vals[i].Load()
				if v == nil {
					continue
				}
				nt.insertUnlocked(k, v)
			}
		}
	}
	t.cur.Store(nt)
	t.resizes.Add(1)
	for i := range old.buckets {
		old.buckets[i].release()
	}
}

// insertUnlocked adds an entry to a table not yet visible to any reader.
func (nt *table[V]) insertUnlocked(key uint64, v *V) {
	b := &nt.buckets[hash(key)&nt.mask]
	for {
		for i := 0; i < slotsPerBucket; i++ {
			if b.keys[i].Load() == 0 {
				b.vals[i].Store(v)
				b.keys[i].Store(key)
				return
			}
		}
		next := b.next.Load()
		if next == nil {
			next = &bucket[V]{}
			b.next.Store(next)
		}
		b = next
	}
}
