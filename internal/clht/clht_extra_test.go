package clht

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDeleteThenReinsertSameKey(t *testing.T) {
	tb := New[int](0)
	for round := 0; round < 100; round++ {
		v := round
		got, inserted := tb.GetOrInsert(5, func() *int { return &v })
		if !inserted || *got != round {
			t.Fatalf("round %d: reinsert returned stale value %v", round, got)
		}
		if tb.Delete(5) != got {
			t.Fatalf("round %d: delete returned wrong pointer", round)
		}
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after churn", tb.Len())
	}
}

func TestSlotReuseAfterDelete(t *testing.T) {
	// Deleting one key must free its slot for a different key without
	// disturbing neighbours in the same bucket.
	tb := New[uint64](1 << 10) // large: no resize, stable buckets
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, k := range keys {
		k := k
		tb.GetOrInsert(k, func() *uint64 { return &k })
	}
	tb.Delete(4)
	k9 := uint64(9)
	tb.GetOrInsert(9, func() *uint64 { return &k9 })
	for _, k := range []uint64{1, 2, 3, 5, 6, 7, 8, 9} {
		if v := tb.Get(k); v == nil || *v != k {
			t.Fatalf("Get(%d) = %v after slot churn", k, v)
		}
	}
	if tb.Get(4) != nil {
		t.Fatal("deleted key still visible")
	}
}

func TestGetDuringResize(t *testing.T) {
	// Readers must always find previously inserted keys, even while a
	// resize is copying the table.
	tb := New[uint64](0)
	const stable = 100
	for k := uint64(1); k <= stable; k++ {
		k := k
		tb.GetOrInsert(k, func() *uint64 { return &k })
	}
	var stop atomic.Bool
	var readerErr atomic.Value
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for k := uint64(1); k <= stable; k++ {
					if v := tb.Get(k); v == nil || *v != k {
						readerErr.Store(k)
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}
	// Force several resizes.
	for k := uint64(stable + 1); k <= 20000; k++ {
		k := k
		tb.GetOrInsert(k, func() *uint64 { return &k })
	}
	stop.Store(true)
	wg.Wait()
	if v := readerErr.Load(); v != nil {
		t.Fatalf("reader lost key %v during resize", v)
	}
	if tb.Resizes() == 0 {
		t.Fatal("no resize happened; test exercised nothing")
	}
}
