package gls

import (
	"fmt"
	"testing"

	"gls/locks"
	"gls/telemetry"
)

// speciesOptions are the service configurations whose entries are built
// differently: bare, wrapped for telemetry, and behind the debugger.
func speciesOptions() map[string]Options {
	return map[string]Options{
		"bare":      {},
		"telemetry": {Telemetry: telemetry.New(telemetry.Options{})},
		"debug":     {Debug: true, OnIssue: func(Issue) {}},
	}
}

// exerciseExclusive drives key's exclusive side through both accessors and
// checks at each step, on the lock object the entry really holds, that the
// operation landed there: a dispatch that took the other layout's path
// would acquire memory that is not this key's lock and leave it free.
func exerciseExclusive(t *testing.T, s *Service, key uint64, wantInline bool) {
	t.Helper()
	e := s.table.Get(key)
	if e == nil {
		t.Fatalf("key %#x not mapped", key)
	}
	if e.inline() != wantInline {
		t.Fatalf("key %#x: inline = %v, want %v", key, e.inline(), wantInline)
	}
	var real locks.Lock = &e.lk
	if !wantInline {
		real = e.boxed().lock
	}
	held := func(when string, want bool) {
		t.Helper()
		got := !real.TryLock()
		if !got {
			real.Unlock()
		}
		if got != want {
			t.Fatalf("key %#x, %s: its lock object is held = %v, want %v", key, when, got, want)
		}
	}
	h := s.NewHandle()
	held("at rest", false)
	s.Lock(key)
	held("after Service.Lock", true)
	if s.TryLock(key) || h.TryLock(key) {
		t.Fatalf("key %#x: TryLock of a held key succeeded", key)
	}
	h.Unlock(key)
	held("after Handle.Unlock", false)
	h.Lock(key)
	held("after Handle.Lock", true)
	s.Unlock(key)
	held("after Service.Unlock", false)
	if !h.TryLock(key) {
		t.Fatalf("key %#x: Handle.TryLock of a free key failed", key)
	}
	held("after Handle.TryLock", true)
	h.Unlock(key)
	if !s.TryLock(key) {
		t.Fatalf("key %#x: Service.TryLock of a free key failed", key)
	}
	held("after Service.TryLock", true)
	s.Unlock(key)
	if h.CacheMisses() != 1 {
		t.Fatalf("key %#x: %d handle misses over one key, want 1", key, h.CacheMisses())
	}
}

// TestSpeciesDispatch: only a key created through the default surface is an
// inline GLK lock, and every operation on a key of either layout, through
// the service or a handle, reaches that key's own lock — for every explicit
// algorithm, the reader-writer default, pins with a named algorithm, with
// telemetry wrapping the locks and with the debugger in front of them.
func TestSpeciesDispatch(t *testing.T) {
	for name, opts := range speciesOptions() {
		t.Run(name, func(t *testing.T) {
			s := newTestService(t, opts)
			key := uint64(0x5000)
			next := func() uint64 { key += 16; return key }

			// The default surface, by each of its doors.
			for door, create := range map[string]func(k uint64){
				"InitLock": s.InitLock,
				"Lock":     func(k uint64) { s.Lock(k); s.Unlock(k) },
				"TryLock":  func(k uint64) { s.TryLock(k); s.Unlock(k) },
				"Handle":   func(k uint64) { h := s.NewHandle(); h.Lock(k); h.Unlock(k) },
			} {
				k := next()
				create(k)
				if _, ok := s.GLKStats(k); !ok {
					t.Errorf("%s: GLKStats does not know the key it created", door)
				}
				exerciseExclusive(t, s, k, true)
			}

			for _, a := range locks.Algorithms() {
				k := next()
				s.InitLockWith(a, k)
				if got := s.table.Get(k).algo(); got != a {
					t.Errorf("InitLockWith(%v): entry says %v", a, got)
				}
				if _, ok := s.GLKStats(k); ok {
					t.Errorf("InitLockWith(%v): GLKStats claims the key", a)
				}
				exerciseExclusive(t, s, k, false)
				k = next()
				s.LockWith(a, k)
				s.UnlockWith(a, k)
				exerciseExclusive(t, s, k, false)
			}

			k := next()
			p := s.PinWith(locks.Mutex, k)
			exerciseExclusive(t, s, k, false)
			if !p.TryLock() {
				t.Fatal("pinned key not acquirable")
			}
			if s.TryLock(k) {
				t.Fatal("Service.TryLock acquired a key its pin holds")
			}
			p.Unlock()
			p.Unpin()

			k = next()
			s.InitRWLock(k)
			exerciseExclusive(t, s, k, false) // the write side
			h := s.NewHandle()
			h.RLock(k)
			if !s.TryRLock(k) {
				t.Fatalf("rw key %#x: second read share refused", k)
			}
			if s.TryLock(k) || h.TryLock(k) {
				t.Fatalf("rw key %#x: write lock granted beside read shares", k)
			}
			h.RUnlock(k)
			s.RUnlock(k)
			if !h.TryLock(k) {
				t.Fatalf("rw key %#x: write lock refused with no reader", k)
			}
			if s.TryRLock(k) {
				t.Fatalf("rw key %#x: read share granted beside the writer", k)
			}
			h.Unlock(k)
		})
	}
}

// TestRespeciesUnderLiveHandle: a key freed and created again as another
// species under a handle that caches it re-resolves — once per incarnation,
// by CacheMisses — and every operation lands on the incarnation that is
// mapped; releasing a key that is not mapped still panics with the
// messages it always had, through both accessors.
func TestRespeciesUnderLiveHandle(t *testing.T) {
	s := newTestService(t, Options{})
	h := s.NewHandle()
	const key = 0x7e57
	misses := uint64(0)
	check := func(when string, inline, rw bool) {
		t.Helper()
		if got := h.CacheMisses(); got != misses {
			t.Fatalf("%s: %d misses, want %d", when, got, misses)
		}
		e := s.table.Get(key)
		if h.last != e {
			t.Fatalf("%s: the handle caches %p, the table maps %p", when, h.last, e)
		}
		if e.inline() != inline || (e.rwLock() != nil) != rw || s.IsRWKey(key) != rw {
			t.Fatalf("%s: inline %v rw %v, want %v %v", when, e.inline(), e.rwLock() != nil, inline, rw)
		}
	}

	h.Lock(key)
	h.Unlock(key)
	misses++
	check("default key", true, false)

	s.Free(key)
	s.InitRWLock(key)
	h.RLock(key)
	h.RUnlock(key)
	misses++
	h.Lock(key) // the write side of the same incarnation: a hit
	h.Unlock(key)
	check("re-created as glkrw", false, true)

	s.Free(key)
	s.InitLockWith(locks.Ticket, key)
	h.Lock(key)
	h.Unlock(key)
	misses++
	check("re-created as ticket", false, false)
	msg := mustPanic(t, "RLock of an exclusive key", func() { h.RLock(key) })
	if want := fmt.Sprintf("gls: key %#x is mapped to an exclusive lock; RW entry points need an RW key (use a fresh key or InitRWLock first)", key); msg != want {
		t.Errorf("RLock of an exclusive key panicked with %q, want %q", msg, want)
	}
	misses++ // the refused RLock resolved through the table

	s.Free(key)
	h.Lock(key)
	h.Unlock(key)
	misses++
	check("re-created as the default", true, false)

	s.Free(key)
	for what, f := range map[string]func(){
		"Unlock":  func() { s.Unlock(key) },
		"RUnlock": func() { s.RUnlock(key) },
	} {
		want := fmt.Sprintf("gls: %s(%#x): key was never locked", what, key)
		if msg := mustPanic(t, "Service."+what, f); msg != want {
			t.Errorf("Service.%s of an unmapped key panicked with %q, want %q", what, msg, want)
		}
	}
	for what, f := range map[string]func(){
		"Unlock":  func() { h.Unlock(key) },
		"RUnlock": func() { h.RUnlock(key) },
	} {
		want := fmt.Sprintf("gls: %s(%#x): key was never locked", what, key)
		if msg := mustPanic(t, "Handle."+what, f); msg != want {
			t.Errorf("Handle.%s of an unmapped key panicked with %q, want %q", what, msg, want)
		}
		misses++
	}
	if got := h.CacheMisses(); got != misses {
		t.Fatalf("at the end: %d misses, want %d", got, misses)
	}
	s.InitLock(key)
	if msg := mustPanic(t, "Handle.RUnlock of an exclusive key", func() { h.RUnlock(key) }); msg != fmt.Sprintf("gls: RUnlock(%#x): key is mapped to an exclusive lock", key) {
		t.Errorf("Handle.RUnlock of an exclusive key panicked with %q", msg)
	}
}
