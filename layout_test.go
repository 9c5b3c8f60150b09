package gls

import (
	"runtime"
	"testing"
	"unsafe"

	"gls/internal/pad"
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
		"fast":   unsafe.Offsetof(s.fast),
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

// TestEntryLayout pins the entry's two lines (see the entry doc comment):
// the first is the lock — its arrival words with the flag word every
// look-up and every Handle hit loads among them — the second the words a
// holder, a pinner or the debugger writes, so neither of those ever dirties
// the line a look-up ends on; the boxed layout agrees with it on everything
// both have; and the entry is exactly two lines, so heap slots stay
// line-aligned.
func TestEntryLayout(t *testing.T) {
	var e entry
	if off := unsafe.Offsetof(e.lk); off != 0 {
		t.Errorf("the lock at offset %d, want 0: the slot's pointer is the lock's", off)
	}
	if s := unsafe.Sizeof(e.lk); s != pad.CacheLineSize {
		t.Errorf("the lock is %d bytes, want the first line exactly", s)
	}
	if end := auxOffset + unsafe.Sizeof(e.lk.Aux); end > pad.CacheLineSize {
		t.Errorf("the flag word ends at offset %d, past the first line", end)
	}
	for name, off := range map[string]uintptr{
		"key":   unsafe.Offsetof(e.key),
		"owner": unsafe.Offsetof(e.owner),
		"pins":  unsafe.Offsetof(e.pins),
		"seq":   unsafe.Offsetof(e.seq),
	} {
		if off/pad.CacheLineSize != 1 {
			t.Errorf("%s at offset %d, want it on the second line", name, off)
		}
	}
	if s := unsafe.Sizeof(e); s != 2*pad.CacheLineSize {
		t.Errorf("entry is %d bytes, want %d (the lock's line and the holder's)", s, 2*pad.CacheLineSize)
	}

	var b boxedEntry
	if off := unsafe.Offsetof(b.flags); off != auxOffset {
		t.Errorf("boxed flag word at offset %d, the inline one at %d", off, auxOffset)
	}
	if end := unsafe.Sizeof(b.boxedHead); end > auxOffset {
		t.Errorf("boxed head is %d bytes, runs into the flag word at %d", end, auxOffset)
	}
	if a, b := unsafe.Offsetof(e.entryStats), unsafe.Offsetof(b.entryStats); a != b {
		t.Errorf("second line at offset %d inline, %d boxed", a, b)
	}
	if s := unsafe.Sizeof(b); s != unsafe.Sizeof(e) {
		t.Errorf("boxed entry is %d bytes, inline %d", s, unsafe.Sizeof(e))
	}
	if EntryBytes != unsafe.Sizeof(e) {
		t.Errorf("EntryBytes = %d, an entry is %d", EntryBytes, unsafe.Sizeof(e))
	}
}

// TestDefaultKeyIsOneObject pins what the layout buys: creating a default
// key is one heap allocation (entry and lock were two), and a table of them
// costs its entries plus the clht bucket share and nothing per key besides.
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
