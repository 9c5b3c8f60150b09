package gls

import (
	"runtime"
	"testing"
	"unsafe"

	"gls/internal/pad"
	"gls/locks"
)

// TestServiceLayout pins the Service's sections (see its doc comment): the
// words every look-up loads sit together on the first line, and nothing a
// create, a Free, an Unpin or Close writes shares a line
// with them or with anything else New wrote for good; the struct is whole
// lines, which the allocator then aligns.
func TestServiceLayout(t *testing.T) {
	var s Service
	line := func(off uintptr) uintptr { return off / pad.CacheLineSize }
	for name, off := range map[string]uintptr{
		"table":  unsafe.Offsetof(s.table),
		"glkSet": unsafe.Offsetof(s.glkSet),
		"dbg":    unsafe.Offsetof(s.dbg),
		"tele":   unsafe.Offsetof(s.tele),
	} {
		if line(off) != 0 {
			t.Errorf("%s at offset %d, want it on the first line", name, off)
		}
	}
	readOnlyEnd := unsafe.Offsetof(s.opts) + unsafe.Sizeof(s.opts)
	for name, off := range map[string]uintptr{
		"frees":    unsafe.Offsetof(s.frees),
		"seqFloor": unsafe.Offsetof(s.seqFloor),
		"closed":   unsafe.Offsetof(s.closed),
	} {
		if line(off) <= line(readOnlyEnd-1) {
			t.Errorf("%s at offset %d shares a line with the read-only words, which end at %d", name, off, readOnlyEnd)
		}
	}
	if a, b := line(unsafe.Offsetof(s.frees)), line(unsafe.Offsetof(s.seqFloor)); a != b {
		t.Errorf("frees on line %d, seqFloor on line %d: a freeing Unpin should write one line", a, b)
	}
	if churn, rare := line(unsafe.Offsetof(s.seqFloor)), line(unsafe.Offsetof(s.closed)); churn >= rare {
		t.Errorf("closed is on line %d, the churn words are on line %d", rare, churn)
	}
	if size := unsafe.Sizeof(s); size%pad.CacheLineSize != 0 {
		t.Errorf("Service is %d bytes, not a multiple of %d", size, pad.CacheLineSize)
	}
	svc := New(Options{})
	defer svc.Close()
	if addr := uintptr(unsafe.Pointer(svc)); addr%pad.CacheLineSize != 0 {
		t.Errorf("Service at address %#x, not %d-byte aligned", addr, pad.CacheLineSize)
	}
}

// TestEntryLayout pins the two layouts (see the entry doc comment): an
// inline entry is its lock and nothing else — exactly one line, with the
// flag word every look-up and every Handle hit loads inside it — and the
// boxed entry keeps that flag word at the same offset, with the words a
// pinner writes on a second line of their own, so a pinner never dirties
// the line a look-up ends on. Entries on the heap start on line boundaries.
func TestEntryLayout(t *testing.T) {
	var e entry
	if off := unsafe.Offsetof(e.lk); off != 0 {
		t.Errorf("the lock at offset %d, want 0: the slot's pointer is the lock's", off)
	}
	if s := unsafe.Sizeof(e); s != pad.CacheLineSize {
		t.Errorf("entry is %d bytes, want one line (%d)", s, pad.CacheLineSize)
	}
	if end := auxOffset + unsafe.Sizeof(e.lk.Aux); end > pad.CacheLineSize {
		t.Errorf("the flag word ends at offset %d, past the line", end)
	}
	if EntryBytes != unsafe.Sizeof(e) {
		t.Errorf("EntryBytes = %d, an entry is %d", EntryBytes, unsafe.Sizeof(e))
	}

	var b boxedEntry
	if off := unsafe.Offsetof(b.flags); off != auxOffset {
		t.Errorf("boxed flag word at offset %d, the inline one at %d", off, auxOffset)
	}
	if end := unsafe.Sizeof(b.boxedHead); end > auxOffset {
		t.Errorf("boxed head is %d bytes, runs into the flag word at %d", end, auxOffset)
	}
	for name, off := range map[string]uintptr{
		"key":  unsafe.Offsetof(b.key),
		"pins": unsafe.Offsetof(b.pins),
		"seq":  unsafe.Offsetof(b.seq),
	} {
		if off/pad.CacheLineSize != 1 {
			t.Errorf("boxed %s at offset %d, want it on the second line", name, off)
		}
	}
	if s := unsafe.Sizeof(b); s != 2*pad.CacheLineSize {
		t.Errorf("boxed entry is %d bytes, want %d (the head's line and the pinner's)", s, 2*pad.CacheLineSize)
	}

	svc := New(Options{})
	defer svc.Close()
	for k := uint64(1); k <= 8; k++ {
		svc.InitLock(k)
		svc.InitLockWith(locks.Mutex, k+8)
		for _, key := range []uint64{k, k + 8} {
			if addr := uintptr(unsafe.Pointer(svc.table.Get(key))); addr%pad.CacheLineSize != 0 {
				t.Errorf("key %d's entry at address %#x, not %d-byte aligned", key, addr, pad.CacheLineSize)
			}
		}
	}
}

// TestDefaultKeyIsOneObject pins what the layout buys: creating a default
// key is one heap allocation of one line (the entry is the lock), and a
// table of them costs its entries plus the clht bucket share and nothing
// per key besides.
func TestDefaultKeyIsOneObject(t *testing.T) {
	const n = 100_000
	svc := New(Options{SizeHint: 2 * n})
	defer svc.Close()
	key := uint64(n)
	if got := testing.AllocsPerRun(1000, func() {
		key++
		svc.InitLock(key)
	}); got != 1 {
		t.Errorf("InitLock of a fresh key makes %.0f heap objects, want 1", got)
	}
	const fresh = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < fresh; i++ {
		key++
		svc.InitLock(key)
	}
	runtime.ReadMemStats(&m1)
	if got := (m1.TotalAlloc - m0.TotalAlloc) / fresh; got != uint64(EntryBytes) {
		t.Errorf("InitLock of a fresh key allocates %d B, want the %d-byte entry", got, EntryBytes)
	}

	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	svc2 := New(Options{SizeHint: n})
	defer svc2.Close()
	before := heap()
	for k := uint64(1); k <= n; k++ {
		svc2.InitLock(k)
	}
	perKey := float64(heap()-before) / n
	if limit := float64(EntryBytes + 48); perKey > limit {
		t.Errorf("%d default keys cost %.0f B/key, want ≤ %.0f (the entry plus the bucket share)", n, perKey, limit)
	}
	runtime.KeepAlive(svc2)
}

// TestHandleLayout pins the Handle's padding (see its last field): two
// whole cache lines, so that handles allocated back to back — one per
// goroutine — start on line boundaries and therefore never share a line.
func TestHandleLayout(t *testing.T) {
	if s := unsafe.Sizeof(Handle{}); s != 2*pad.CacheLineSize {
		t.Errorf("Handle is %d bytes, want %d", s, 2*pad.CacheLineSize)
	}
	svc := New(Options{})
	defer svc.Close()
	var hs [8]*Handle
	for i := range hs {
		hs[i] = svc.NewHandle()
	}
	for i, h := range hs {
		addr := uintptr(unsafe.Pointer(h))
		if addr%pad.CacheLineSize != 0 {
			t.Errorf("handle %d at address %#x, not %d-byte aligned", i, addr, pad.CacheLineSize)
		}
	}
}
