// Package clht implements the concurrent hash table GLS uses to map
// addresses to lock objects — a Go rendition of the lock-based CLHT of
// David/Guerraoui/Trigonakis (ASPLOS'15), with the properties the paper's
// §4.1 relies on:
//
//  1. cache-line-sized buckets (three key/value slots per bucket), so
//     operations typically touch one line;
//  2. searching for a key is read-only and lock-free (and, in the head
//     bucket, one multiply and no branch per slot: Get);
//  3. failing to insert an existing key is also read-only and lock-free
//     (GetOrInsert probes before locking);
//  4. the table is resizable.
//
// Writers take a per-bucket spinlock whose word is also the bucket's
// version, OPTIK-style (David/Guerraoui/Trigonakis, PPoPP'16): odd while
// held, and one higher at every acquire and release. A look-up that reads
// the same version before and after its loads returns what it found; one
// that does not retries, which happens only when a writer made progress.
// A resize briefly locks all buckets of the old table, copies, and swaps
// the table pointer (readers never block).
// Key 0 is reserved as the empty-slot sentinel — GLS rejects nil/zero keys
// at its API boundary, mirroring the paper's "any arbitrary value ... except
// for NULL".
package clht

import (
	"math/bits"
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
// A head bucket's lock guards its whole chain.
type bucket[V any] struct {
	lock atomic.Uint32 // TTAS writer lock and version: odd while held
	keys [slotsPerBucket]atomic.Uint64
	vals [slotsPerBucket]atomic.Pointer[V]
	next atomic.Pointer[bucket[V]]
}

func (b *bucket[V]) acquire() {
	var s backoff.Spinner
	for {
		if v := b.lock.Load(); v&1 == 0 && b.lock.CompareAndSwap(v, v+1) {
			return
		}
		s.Spin()
	}
}

// release makes the version even again, one past the acquire's: only the
// holder writes an odd word.
func (b *bucket[V]) release() { b.lock.Store(b.lock.Load() + 1) }

// table is one immutable-size generation of the hash table.
type table[V any] struct {
	buckets []bucket[V]
	shift   uint // 64 − log2(len(buckets)): hash(key)>>shift indexes buckets
}

// newTable returns an empty table of n buckets (a power of two).
func newTable[V any](n uint64) *table[V] {
	return &table[V]{buckets: make([]bucket[V], n), shift: uint(64 - bits.TrailingZeros64(n))}
}

// head returns the bucket key hashes to. shift is at most 58, so masking
// it changes nothing but spares the compiler's guard for shifts of 64 and
// more.
func (tab *table[V]) head(key uint64) *bucket[V] {
	return &tab.buckets[hash(key)>>(tab.shift&63)]
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
	t.cur.Store(newTable[V](n))
	return t
}

// hash is one multiply by 2⁶⁴/φ (Fibonacci hashing) with the product's low
// half folded into its high half; table.head indexes the buckets with the
// top bits. The product's high bits alone spread sequential keys and keys
// that differ only in their high bits perfectly, but strided keys — heap
// objects of one size class, 16 to 112 bytes apart — piled up to 76 % of
// them into overflow buckets at some table sizes; the fold brings in the
// bits those strides vary, so no set tried does much worse than random
// (TestHashSpread).
func hash(k uint64) uint64 {
	h := k * 0x9e3779b97f4a7c15
	return h ^ h<<32
}

// Get returns the value mapped to key, or nil if absent. It takes no lock
// and writes nothing; it is lock-free, not wait-free: it retries when a
// writer acquired or released key's head bucket during its loads.
//
// The head bucket's slot is chosen without a branch per slot: which slot
// a key sits in is a coin toss per look-up, so a loop whose exit depends
// on it mispredicts. The chosen slot's value is loaded and its key
// re-read, as the walk does; anything else — no slot matched (an overflow
// chain or an absent key), the re-check failed (a racing Delete), or the
// key showed in two slots (a Delete racing a re-insert) — takes the walk.
//
// A value is returned only if the head bucket's version reads the same
// before and after: the key re-check alone passes a slot that went key →
// other key → key between the loads, with the other key's value. Within
// one critical section a slot changes once, and in the order (value before
// key on insert, key before value on delete) the re-check is built for;
// the version wraps after 2³¹ of them, far more than fit in one look-up.
// A nil result needs no check: a key that is in the table throughout a
// look-up is in one slot throughout, and the look-up finds it.
func (t *Table[V]) Get(key uint64) *V {
	if key == 0 {
		return nil
	}
	b := t.cur.Load().head(key)
	ver := b.lock.Load()
	i := slotOf(b.keys[0].Load() == key, b.keys[1].Load() == key, b.keys[2].Load() == key)
	if i < slotsPerBucket {
		seam(seamKeys)
		v := b.vals[i].Load()
		seam(seamValue)
		if v != nil && b.keys[i].Load() == key && b.lock.Load() == ver {
			return v
		}
	}
	return t.walk(key)
}

// walk is Get's slot-by-slot look-up of key's chain, repeated until the
// head bucket's version holds across one whole walk.
func (t *Table[V]) walk(key uint64) *V {
	for {
		b := t.cur.Load().head(key)
		ver := b.lock.Load()
		if v := b.find(key); v == nil || b.lock.Load() == ver {
			return v
		}
	}
}

// seamPoint names a point between a look-up's loads (seam).
type seamPoint uint8

const (
	seamKeys  seamPoint = iota // a key matched; its value is not yet loaded
	seamValue                  // the value is loaded; the key is not yet re-read
)

// slotOf returns the one slot whose key matched, or slotsPerBucket when
// none did. A key seen in two slots gives a value out of range (slots 0
// and 1, or 0 and 2) or slot 0 (slots 1 and 2), whose re-check fails; the
// caller walks either way. Each bool becomes a SETcc, not a jump.
func slotOf(m0, m1, m2 bool) uint {
	return slotsPerBucket - 3*b2u(m0) - 2*b2u(m1) - b2u(m2)
}

// b2u is 1 for true and 0 for false; the compiler emits no branch for it.
func b2u(b bool) uint {
	var u uint
	if b {
		u = 1
	}
	return u
}

// find walks the chain from b slot by slot; the caller checks the version.
func (b *bucket[V]) find(key uint64) *V {
	for b != nil {
		for i := 0; i < slotsPerBucket; i++ {
			if b.keys[i].Load() != key {
				continue
			}
			seam(seamKeys)
			v := b.vals[i].Load()
			seam(seamValue)
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
	// Lock-free fast path: most lookups hit existing keys once a system's
	// locks are warm ("this hash table converges to a read-mostly hash
	// table", paper §1).
	if v := t.Get(key); v != nil {
		return v, false
	}
	for {
		tab := t.cur.Load()
		b := tab.head(key)
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
		b := tab.head(key)
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

// Resizes returns how many table growths have happened.
func (t *Table[V]) Resizes() uint64 { return t.resizes.Load() }

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
	nt := newTable[V](uint64(len(old.buckets)) * 2)
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
	b := nt.head(key)
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
