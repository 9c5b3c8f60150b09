package clht

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"gls/internal/pad"
	"gls/internal/xrand"
)

// TestTableLayout pins the Table's two lines (see its doc comment): the
// table pointer every look-up loads shares its line with nothing an insert
// or a delete writes.
func TestTableLayout(t *testing.T) {
	var tb Table[int]
	if off := unsafe.Offsetof(tb.cur); off != 0 {
		t.Errorf("cur at offset %d, want 0", off)
	}
	for name, off := range map[string]uintptr{
		"count":    unsafe.Offsetof(tb.count),
		"resizeMu": unsafe.Offsetof(tb.resizeMu),
		"resizes":  unsafe.Offsetof(tb.resizes),
	} {
		if off/pad.CacheLineSize != 1 {
			t.Errorf("%s at offset %d, want it on the second line", name, off)
		}
	}
	if size := unsafe.Sizeof(tb); size != 2*pad.CacheLineSize {
		t.Errorf("Table is %d bytes, want %d", size, 2*pad.CacheLineSize)
	}
	if addr := uintptr(unsafe.Pointer(New[int](0))); addr%pad.CacheLineSize != 0 {
		t.Errorf("Table at address %#x, not %d-byte aligned", addr, pad.CacheLineSize)
	}
}

func TestGetAbsent(t *testing.T) {
	tb := New[int](0)
	if got := tb.Get(42); got != nil {
		t.Fatalf("Get on empty table = %v", got)
	}
	if got := tb.Get(0); got != nil {
		t.Fatal("Get(0) must be nil")
	}
}

func TestGetOrInsertBasics(t *testing.T) {
	tb := New[int](0)
	calls := 0
	mk := func(v int) func() *int {
		return func() *int { calls++; x := v; return &x }
	}
	v1, inserted := tb.GetOrInsert(7, mk(100))
	if !inserted || *v1 != 100 {
		t.Fatalf("first insert: v=%v inserted=%v", v1, inserted)
	}
	v2, inserted := tb.GetOrInsert(7, mk(200))
	if inserted || v2 != v1 {
		t.Fatalf("second insert: got new value (inserted=%v)", inserted)
	}
	if calls != 1 {
		t.Fatalf("create called %d times, want 1", calls)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
}

func TestGetOrInsertZeroKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero key did not panic")
		}
	}()
	New[int](0).GetOrInsert(0, func() *int { return new(int) })
}

func TestDelete(t *testing.T) {
	tb := New[int](0)
	x := 5
	tb.GetOrInsert(9, func() *int { return &x })
	if got := tb.Delete(9); got != &x {
		t.Fatalf("Delete returned %v, want inserted pointer", got)
	}
	if tb.Get(9) != nil {
		t.Fatal("key still present after Delete")
	}
	if got := tb.Delete(9); got != nil {
		t.Fatal("double Delete returned a value")
	}
	if got := tb.Delete(0); got != nil {
		t.Fatal("Delete(0) returned a value")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tb.Len())
	}
}

func TestOverflowChains(t *testing.T) {
	// Insert many more keys than one bucket holds without triggering a
	// resize (big initial size), then delete them all.
	tb := New[uint64](1 << 14)
	const n = 5000
	for k := uint64(1); k <= n; k++ {
		k := k
		tb.GetOrInsert(k, func() *uint64 { return &k })
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	for k := uint64(1); k <= n; k++ {
		v := tb.Get(k)
		if v == nil || *v != k {
			t.Fatalf("Get(%d) = %v", k, v)
		}
	}
	for k := uint64(1); k <= n; k++ {
		if tb.Delete(k) == nil {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	if tb.Len() != 0 {
		t.Fatalf("Len after deletes = %d", tb.Len())
	}
}

func TestResizeGrowsAndPreserves(t *testing.T) {
	tb := New[uint64](0) // small: forces resizes
	const n = 10000
	for k := uint64(1); k <= n; k++ {
		k := k
		tb.GetOrInsert(k, func() *uint64 { return &k })
	}
	if tb.Resizes() == 0 {
		t.Fatal("no resize happened despite 10k inserts into a 64-bucket table")
	}
	for k := uint64(1); k <= n; k++ {
		v := tb.Get(k)
		if v == nil || *v != k {
			t.Fatalf("post-resize Get(%d) = %v", k, v)
		}
	}
}

func TestRangeVisitsAll(t *testing.T) {
	tb := New[uint64](0)
	want := map[uint64]bool{}
	for k := uint64(1); k <= 500; k++ {
		k := k
		tb.GetOrInsert(k, func() *uint64 { return &k })
		want[k] = true
	}
	got := map[uint64]bool{}
	tb.Range(func(k uint64, v *uint64) bool {
		if *v != k {
			t.Fatalf("Range pair %d -> %d", k, *v)
		}
		got[k] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	// Early termination.
	visits := 0
	tb.Range(func(uint64, *uint64) bool { visits++; return false })
	if visits != 1 {
		t.Fatalf("Range after false = %d visits, want 1", visits)
	}
}

// TestMatchesReferenceMap drives the table and a plain map with the same
// random operation sequence and compares observable behaviour.
func TestMatchesReferenceMap(t *testing.T) {
	f := func(seed uint64, opsRaw []byte) bool {
		tb := New[uint64](0)
		ref := map[uint64]*uint64{}
		rng := xrand.NewSplitMix64(seed)
		for _, op := range opsRaw {
			key := rng.Uintn(32) + 1 // small key space: plenty of collisions
			switch op % 3 {
			case 0: // GetOrInsert
				k := key
				v, inserted := tb.GetOrInsert(key, func() *uint64 { return &k })
				if prev, ok := ref[key]; ok {
					if inserted || v != prev {
						return false
					}
				} else {
					if !inserted {
						return false
					}
					ref[key] = v
				}
			case 1: // Get
				v := tb.Get(key)
				if ref[key] != v {
					return false
				}
			case 2: // Delete
				v := tb.Delete(key)
				if ref[key] != v {
					return false
				}
				delete(ref, key)
			}
			if tb.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentGetOrInsertSingleWinner(t *testing.T) {
	// All goroutines race to insert the same key; exactly one create must
	// win and everyone must observe the same pointer.
	tb := New[int](0)
	const goroutines = 16
	var created atomic.Int32
	results := make([]*int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _ := tb.GetOrInsert(99, func() *int {
				created.Add(1)
				x := i
				return &x
			})
			results[i] = v
		}(g)
	}
	wg.Wait()
	if created.Load() != 1 {
		t.Fatalf("create ran %d times, want 1", created.Load())
	}
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatal("goroutines observed different values for one key")
		}
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	tb := New[uint64](0)
	const goroutines, iters = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewSplitMix64(seed)
			for i := 0; i < iters; i++ {
				key := rng.Uintn(256) + 1
				switch rng.Uintn(10) {
				case 0:
					tb.Delete(key)
				case 1, 2:
					k := key
					v, _ := tb.GetOrInsert(key, func() *uint64 { return &k })
					if *v != key {
						t.Errorf("GetOrInsert(%d) returned value %d", key, *v)
						return
					}
				default:
					if v := tb.Get(key); v != nil && *v != key {
						t.Errorf("Get(%d) returned value %d", key, *v)
						return
					}
				}
			}
		}(uint64(g) + 1)
	}
	wg.Wait()
}

func TestConcurrentInsertsDuringResize(t *testing.T) {
	tb := New[uint64](0)
	const goroutines = 8
	const perG = 4000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < perG; i++ {
				k := base*perG + i + 1
				tb.GetOrInsert(k, func() *uint64 { v := k; return &v })
			}
		}(uint64(g))
	}
	wg.Wait()
	if tb.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", tb.Len(), goroutines*perG)
	}
	if tb.Resizes() == 0 {
		t.Fatal("expected at least one resize")
	}
	// Every key must be present with its value.
	for g := uint64(0); g < goroutines; g++ {
		for i := uint64(0); i < perG; i++ {
			k := g*perG + i + 1
			v := tb.Get(k)
			if v == nil || *v != k {
				t.Fatalf("Get(%d) = %v after concurrent resize", k, v)
			}
		}
	}
}

func BenchmarkGetHit(b *testing.B) {
	tb := New[uint64](1024)
	for k := uint64(1); k <= 512; k++ {
		k := k
		tb.GetOrInsert(k, func() *uint64 { return &k })
	}
	rng := xrand.NewSplitMix64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tb.Get(rng.Uintn(512) + 1)
	}
}

func BenchmarkGetOrInsertHit(b *testing.B) {
	tb := New[uint64](1024)
	for k := uint64(1); k <= 512; k++ {
		k := k
		tb.GetOrInsert(k, func() *uint64 { return &k })
	}
	rng := xrand.NewSplitMix64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Uintn(512) + 1
		tb.GetOrInsert(k, func() *uint64 { return &k })
	}
}
