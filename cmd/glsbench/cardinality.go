package main

import (
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"gls"
	"gls/glk"
	"gls/internal/figures"
	"gls/internal/harness"
	"gls/internal/stripe"
	"gls/locks"
)

// The cardinality family is the footprint side of the hot-path story: a
// production table holds millions of fine-grained keys, and almost all of
// them are idle at any instant. The scenario builds a ~1M-key service,
// reports the marginal heap bytes per lock (the entry that is the lock, plus
// its bucket share), then runs a zipf-skewed workload over the whole key
// space and reports ns/op plus how much the hot keys' lazy state (the
// adaptation block, presence spills, mcs/mutex allocations) added. Before
// lazy striping every key paid the full 8-stripe layout up front; now only
// the keys the skew contends pay anything beyond their entry. The run is a
// guard as well as a report: it fails when a created key costs more than
// its budget, or when the workload leaves the idle tail heavier.

// cardinalityKeys is the key-space size: ~1M (the ROADMAP's north-star
// scale); -quick shrinks it to keep CI smoke runs in memory and seconds.
const (
	cardinalityKeys      = 1 << 20
	cardinalityKeysQuick = 1 << 16
)

// The guard's two budgets. A created default key may cost its entry plus
// 48 bytes of clht bucket (a 64-byte bucket of three slots, filled to the
// table's load factor). The zipf phase contends a handful of keys, whose
// state is a few KB in all: amortised over the table that is well under a
// byte per key, and a whole byte means idle keys started paying.
const (
	maxBytesPerKey      = float64(gls.EntryBytes) + 48
	maxInflationPerLock = 1.0
)

// heapAlloc returns the live heap after a GC, for marginal-footprint
// deltas.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runCardinality measures the million-key scenario.
func runCardinality(s figures.Scale) error {
	n := cardinalityKeys
	if s.Quick {
		n = cardinalityKeysQuick
	}
	fmt.Printf("footprint: default key %dB (the entry is the glk.Lock, %dB; +%dB presence spill once it leaves ticket mode); boxed key a two-line entry + its lock object (glk.RWLock %dB, locks.MutexLock %dB)\n",
		gls.EntryBytes, unsafe.Sizeof(glk.Lock{}), stripe.SpillBytes,
		unsafe.Sizeof(glk.RWLock{}), unsafe.Sizeof(locks.MutexLock{}))

	before := heapAlloc()
	svc := gls.New(gls.Options{SizeHint: n})
	defer svc.Close()
	for k := 1; k <= n; k++ {
		svc.InitLock(uint64(k))
	}
	created := heapAlloc()
	perLock := float64(created-before) / float64(n)
	fmt.Printf("created %d locks: %.1f MiB heap, %.0f B/lock\n",
		n, float64(created-before)/(1<<20), perLock)

	// Zipf access over the whole key space: the skew concentrates real
	// contention on a handful of keys (which leave ticket mode and inflate) while the tail stays
	// idle — exactly the regime the lazy layout is built for.
	threads := runtime.GOMAXPROCS(0)
	if threads < 2 {
		threads = 2
	}
	cfg := harness.Config{
		Threads:   threads,
		Locks:     n,
		ZipfAlpha: 0.99,
		CSCycles:  128,
		Duration:  s.Duration,
		Seed:      42,
	}
	res := harness.RunMedian(cfg, harness.ServiceLocks(svc, 0), s.Reps)
	nsPerOp := float64(res.Elapsed.Nanoseconds()) / float64(res.Ops) * float64(threads)
	fmt.Printf("zipf(0.99) over %d keys, %d threads, %v: %.2f Mops/s, %.1f ns/op (per-thread)\n",
		n, threads, res.Elapsed.Round(time.Millisecond), res.Mops(), nsPerOp)

	after := heapAlloc()
	inflated := float64(int64(after)-int64(created)) / float64(n)
	fmt.Printf("after workload: %+.1f B/lock from lazy inflation on the hot keys\n", inflated)
	if perLock > maxBytesPerKey {
		return fmt.Errorf("a created default key costs %.0f B, budget %.0f (entry %d + bucket share)", perLock, maxBytesPerKey, gls.EntryBytes)
	}
	if inflated > maxInflationPerLock {
		return fmt.Errorf("the zipf phase added %.1f B/lock, budget %.1f: the idle tail is paying for the hot keys", inflated, maxInflationPerLock)
	}
	return nil
}
