package gls

import (
	"testing"
	"unsafe"

	"gls/internal/pad"
)

// TestServiceFreeEpochLayout pins the free-counter placement the handle
// cache-hit path depends on (see the shard doc): each shard's
// freeStart/freeDone pair must sit 16-aligned, where Go's 16-aligned size
// classes cannot split it across cache lines. An Options field once pushed
// the (then service-global) pair over a line boundary and slowed every
// handle hit by an extra line touch; with sharding the same regression
// class exists ×NumShards, so the pin checks the struct offsets AND every
// shard of a live 8-way service.
func TestServiceFreeEpochLayout(t *testing.T) {
	var sh shard
	start := unsafe.Offsetof(sh.freeStart)
	done := unsafe.Offsetof(sh.freeDone)
	if done != start+8 {
		t.Errorf("freeDone at %d, want adjacent to freeStart at %d", done, start)
	}
	if start%16 != 0 {
		t.Errorf("freeStart at offset %d, not 16-aligned", start)
	}
	// The whole shard must be a multiple of the line size: slice elements
	// are laid out back to back, so any smaller unit would let a later
	// shard's pair drift off alignment — and put two shards' epoch words on
	// one line, re-creating cross-shard invalidation at the cache level.
	if s := unsafe.Sizeof(sh); s%pad.CacheLineSize != 0 {
		t.Errorf("shard is %d bytes, not a multiple of %d", s, pad.CacheLineSize)
	}
	svc := New(Options{NumShards: 8})
	defer svc.Close()
	for i := range svc.shards {
		addr := uintptr(unsafe.Pointer(&svc.shards[i].freeStart))
		if addr%16 != 0 {
			t.Errorf("shard %d: freeStart at address %#x, not 16-aligned", i, addr)
		}
		if addr/pad.CacheLineSize != (addr+15)/pad.CacheLineSize {
			t.Errorf("shard %d: epoch pair straddles a cache line (addr %#x)", i, addr)
		}
		if i > 0 {
			prev := uintptr(unsafe.Pointer(&svc.shards[i-1].freeStart))
			if addr/pad.CacheLineSize == prev/pad.CacheLineSize {
				t.Errorf("shards %d and %d share an epoch cache line", i-1, i)
			}
		}
	}
}

// TestEntryLayout pins the entry padding invariants (see the entry doc
// comment): the read-only header the lookup path touches never shares a
// cache line with the debug/profile accumulators, and the entry is a whole
// number of lines so heap slots stay line-aligned.
func TestEntryLayout(t *testing.T) {
	var e entry
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
	if s := unsafe.Sizeof(e); s%pad.CacheLineSize != 0 {
		t.Errorf("entry is %d bytes, not a multiple of %d", s, pad.CacheLineSize)
	}
}

// TestHandleLayout pins the Handle's padding (see its last field): a whole
// number of cache lines, so that handles allocated back to back — one per
// goroutine — start on line boundaries and therefore never share a line.
func TestHandleLayout(t *testing.T) {
	if s := unsafe.Sizeof(Handle{}); s%pad.CacheLineSize != 0 {
		t.Errorf("Handle is %d bytes, not a multiple of %d", s, pad.CacheLineSize)
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
