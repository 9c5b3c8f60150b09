package gls

import (
	"testing"
	"unsafe"

	"gls/internal/pad"
)

// TestShardLayout pins the shard padding (see the shard doc): shards sit
// back to back in Service.shards, so each must be a whole number of lines
// for one shard's creates and Frees never to write the line a neighbour's
// look-ups read their table pointer from.
func TestShardLayout(t *testing.T) {
	if s := unsafe.Sizeof(shard{}); s%pad.CacheLineSize != 0 {
		t.Errorf("shard is %d bytes, not a multiple of %d", s, pad.CacheLineSize)
	}
}

// TestEntryLayout pins the entry padding invariants (see the entry doc
// comment): the read-mostly header the lookup path touches never shares a
// cache line with the debug/profile accumulators, the dead mark every
// Handle hit loads sits on that header line (it took the line's spare
// bytes: the entry did not grow), and the entry is a whole number of lines
// so heap slots stay line-aligned.
func TestEntryLayout(t *testing.T) {
	var e entry
	if end := unsafe.Offsetof(e.dead) + unsafe.Sizeof(e.dead); end > pad.CacheLineSize {
		t.Errorf("dead ends at offset %d, past the header's first line", end)
	}
	if off := unsafe.Offsetof(e.entryHeader); off != 0 {
		t.Errorf("entryHeader at offset %d, want 0", off)
	}
	statsOff := unsafe.Offsetof(e.entryStats)
	if statsOff%pad.CacheLineSize != 0 {
		t.Errorf("entryStats at offset %d, not %d-byte aligned", statsOff, pad.CacheLineSize)
	}
	headerEnd := unsafe.Sizeof(entryHeader{})
	if statsOff/pad.CacheLineSize <= (headerEnd-1)/pad.CacheLineSize {
		t.Errorf("entryStats (offset %d) shares a cache line with the header (%d bytes)",
			statsOff, headerEnd)
	}
	if s := unsafe.Sizeof(e); s != 2*pad.CacheLineSize {
		t.Errorf("entry is %d bytes, want %d (a header line and a stats line)", s, 2*pad.CacheLineSize)
	}
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
