package hamsterdb

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gls/internal/apps/appsync"
	"gls/internal/xrand"
	"gls/locks"
)

func TestBTreeBasics(t *testing.T) {
	bt := newBTree()
	if bt.find(1) != nil {
		t.Fatal("empty tree found a key")
	}
	if !bt.insert(1, []byte("a")) {
		t.Fatal("insert of new key reported existing")
	}
	if bt.insert(1, []byte("b")) {
		t.Fatal("upsert reported new key")
	}
	if string(bt.find(1)) != "b" {
		t.Fatal("upsert did not replace value")
	}
	if bt.count != 1 {
		t.Fatalf("count = %d, want 1", bt.count)
	}
}

func TestBTreeManyKeysSplits(t *testing.T) {
	bt := newBTree()
	const n = 10000
	rng := xrand.NewSplitMix64(3)
	keys := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		k := rng.Next()
		if bt.insert(k, []byte{byte(k)}) {
			keys = append(keys, k)
		}
	}
	if bt.count != len(keys) {
		t.Fatalf("count = %d, want %d", bt.count, len(keys))
	}
	for _, k := range keys {
		v := bt.find(k)
		if v == nil || v[0] != byte(k) {
			t.Fatalf("find(%d) = %v", k, v)
		}
	}
}

func TestBTreeMatchesMapProperty(t *testing.T) {
	f := func(seed uint64, ops []byte) bool {
		bt := newBTree()
		ref := map[uint64][]byte{}
		rng := xrand.NewSplitMix64(seed)
		for _, op := range ops {
			k := rng.Uintn(64)
			switch op % 2 {
			case 0:
				v := []byte{byte(rng.Next())}
				_, existed := ref[k]
				if bt.insert(k, v) != !existed {
					return false
				}
				ref[k] = v
			case 1:
				v := bt.find(k)
				rv, ok := ref[k]
				if ok != (v != nil) {
					return false
				}
				if ok && string(v) != string(rv) {
					return false
				}
			}
			if bt.count != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDBSerializesConcurrentWriters(t *testing.T) {
	for _, a := range []locks.Algorithm{locks.Mutex, locks.Ticket, locks.MCS} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			db := New(appsync.NewRaw(a))
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(base uint64) {
					defer wg.Done()
					for i := uint64(0); i < 500; i++ {
						db.Insert(base*1000+i, []byte("v"))
					}
				}(uint64(g))
			}
			wg.Wait()
			if got := db.tree.count; got != 2000 {
				t.Fatalf("count = %d, want 2000", got)
			}
		})
	}
}

func TestWorkloadSmoke(t *testing.T) {
	db := New(appsync.NewRaw(locks.Mutex))
	ops, elapsed := RunWorkload(db, WorkloadConfig{
		ReadRatio: 0.5, Keys: 2048, Threads: 2,
		Duration: 30 * time.Millisecond, Seed: 9,
	})
	if ops == 0 || elapsed <= 0 {
		t.Fatal("workload did nothing")
	}
	if db.tree.count == 0 {
		t.Fatal("no records after preload")
	}
}
