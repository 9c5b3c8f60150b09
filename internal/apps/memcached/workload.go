package memcached

import (
	"strconv"
	"time"

	"gls/internal/harness"
	"gls/internal/xrand"
)

// Key popularity is zipf with alpha keySkew (YCSB/Twitter-like), and every
// value is valueBytes long.
const (
	keySkew    = 0.99
	valueBytes = 64
)

// WorkloadConfig is the paper's Twitter-like benchmark (§5.2 Table 2): a
// zipf-skewed key popularity with a configurable GET ratio — 10% (SET),
// 50% (SET/GET), or 90% (GET).
type WorkloadConfig struct {
	// GetRatio is the fraction of GET operations in [0,1].
	GetRatio float64
	// Keys is the key-space size (default 65536).
	Keys int
	// Threads is the number of client workers (the paper uses 8).
	Threads int
	// Duration is the measurement window.
	Duration time.Duration
	// Seed fixes the random streams.
	Seed uint64
}

// RunWorkload drives the cache and returns total operations and elapsed
// time. Workers pre-generate key strings so measurement excludes
// formatting cost.
func RunWorkload(c *Cache, w WorkloadConfig) (uint64, time.Duration) {
	if w.Keys <= 0 {
		w.Keys = 65536
	}
	if w.Threads <= 0 {
		w.Threads = 1
	}

	keys := make([]string, w.Keys)
	for i := range keys {
		keys[i] = "key:" + strconv.Itoa(i)
	}
	value := make([]byte, valueBytes)

	// Warm the cache so GETs mostly hit, as in a steady-state cache.
	warm := xrand.NewSplitMix64(w.Seed ^ 0xfeed)
	for i := 0; i < w.Keys/4; i++ {
		c.Set(keys[warm.Uintn(uint64(w.Keys))], value)
	}

	res := harness.Drive(w.Threads, w.Duration, w.Seed, func(wk *harness.Worker) {
		zipf := xrand.NewZipf(&wk.Rng, w.Keys, keySkew)
		for wk.Next() {
			k := keys[zipf.Next()]
			if wk.Rng.Bool(w.GetRatio) {
				c.Get(k)
			} else {
				c.Set(k, value)
			}
		}
	})
	return res.Ops, res.Elapsed
}
