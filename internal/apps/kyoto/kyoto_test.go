package kyoto

import (
	"slices"
	"sync"
	"testing"
	"time"

	"gls/glk"
	"gls/internal/apps/appsync"
	"gls/internal/sysmon"
	"gls/locks"
)

func variants() []Variant { return []Variant{Cache, HashDB, TreeDB} }

// records counts the stored records. Call it with no operation in flight.
func records(db *DB) int {
	n := 0
	for i := range db.buckets {
		n += len(db.buckets[i].entries)
	}
	return n
}

func TestVariantNames(t *testing.T) {
	want := map[Variant]string{Cache: "CACHE", HashDB: "HT DB", TreeDB: "B+-TREE"}
	for v, name := range want {
		if v.String() != name {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), name)
		}
	}
}

func TestGetSetAllVariants(t *testing.T) {
	for _, v := range variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			db := New(Config{Provider: appsync.NewRaw(locks.Mutex), Variant: v})
			if db.Get(1) != nil {
				t.Fatal("empty store returned a value")
			}
			db.Set(1, []byte("a"))
			if string(db.Get(1)) != "a" {
				t.Fatal("Get after Set failed")
			}
			db.Set(1, []byte("b"))
			if string(db.Get(1)) != "b" {
				t.Fatal("overwrite failed")
			}
			if n := records(db); n != 1 {
				t.Fatalf("records = %d, want 1", n)
			}
		})
	}
}

func TestConcurrentSetsNoLostUpdates(t *testing.T) {
	for _, v := range variants() {
		for _, algo := range []locks.Algorithm{locks.Mutex, locks.Ticket, locks.MCS} {
			v, algo := v, algo
			t.Run(v.String()+"/"+algo.String(), func(t *testing.T) {
				db := New(Config{Provider: appsync.NewRaw(algo), Variant: v})
				var wg sync.WaitGroup
				const perG = 400
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(base uint64) {
						defer wg.Done()
						for i := uint64(0); i < perG; i++ {
							db.Set(base*perG+i, []byte("v"))
						}
					}(uint64(g))
				}
				wg.Wait()
				if got := records(db); got != 4*perG {
					t.Fatalf("records = %d, want %d", got, 4*perG)
				}
			})
		}
	}
}

func TestCacheNestingDoesNotDeadlock(t *testing.T) {
	// CACHE's up-to-10-level nesting must be deadlock-free under contention
	// (ordered acquisition). A wedged run fails via timeout.
	db := New(Config{Provider: appsync.NewRaw(locks.MCS), Variant: Cache})
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				for i := uint64(0); i < 2000; i++ {
					db.Set(seed*31+i*7, []byte("x"))
					db.Get(seed*31 + i*3)
				}
			}(uint64(g))
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("CACHE nesting deadlocked")
	}
}

func TestGLKProviderRuns(t *testing.T) {
	cfg := &glk.Config{Monitor: sysmon.New(sysmon.Options{DisableProbes: true})}
	p := appsync.NewGLK(cfg)
	db := New(Config{Provider: p, Variant: Cache})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < 1000; i++ {
				db.Set(base*1000+i, []byte("v"))
			}
		}(uint64(g))
	}
	wg.Wait()
	if n := records(db); n != 4000 {
		t.Fatalf("records = %d, want 4000", n)
	}
	if len(p.Locks()) == 0 {
		t.Fatal("GLK provider created no locks")
	}
}

func TestBucketsRoundedToLockGroups(t *testing.T) {
	db := New(Config{Provider: appsync.NewRaw(locks.Mutex), Variant: HashDB})
	if len(db.buckets)%bucketGroups != 0 {
		t.Fatalf("buckets = %d, not a multiple of %d", len(db.buckets), bucketGroups)
	}
}

func TestWorkloadSmokeAllVariants(t *testing.T) {
	for _, v := range variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			db := New(Config{Provider: appsync.NewRaw(locks.Mutex), Variant: v})
			ops, elapsed := RunWorkload(db, WorkloadConfig{
				Keys: 1024, Threads: 2, Duration: 25 * time.Millisecond, Seed: 4,
			})
			if ops == 0 || elapsed <= 0 {
				t.Fatal("workload did nothing")
			}
		})
	}
}

func TestHTSlowerThanCache(t *testing.T) {
	// The paper reports CACHE ≈ 10× the throughput of HT DB (same machine,
	// same threads). The model's work constants must preserve the ordering.
	if raceEnabled {
		t.Skip("race detector skews per-lock-op cost; ordering not meaningful")
	}
	mk := func(v Variant) float64 {
		db := New(Config{Provider: appsync.NewRaw(locks.Mutex), Variant: v})
		ops, el := RunWorkload(db, WorkloadConfig{
			Keys: 1024, Threads: 2, Duration: 40 * time.Millisecond, Seed: 4,
		})
		return float64(ops) / el.Seconds()
	}
	// One 40 ms window a side loses to scheduler noise now and then under a
	// loaded go test ./..., so compare the medians of five alternating runs a
	// side — §3.2's method (the median of repetitions), as internal/harness
	// does.
	const pairs = 5
	var cache, ht []float64
	for i := 0; i < pairs; i++ {
		cache = append(cache, mk(Cache))
		ht = append(ht, mk(HashDB))
	}
	slices.Sort(cache)
	slices.Sort(ht)
	if c, h := cache[pairs/2], ht[pairs/2]; c <= h {
		t.Fatalf("median CACHE (%.0f ops/s) not faster than median HT DB (%.0f ops/s); runs %.0f vs %.0f", c, h, cache, ht)
	}
}
