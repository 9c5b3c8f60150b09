// Benchmarks of the paper's evaluation and of this tree's hot path.
// BenchmarkFigures runs every figure of internal/figures, the table
// `glsbench -fig N` prints, at glsbench's -quick scale and reports its
// cells; the HotPath family and BenchmarkTable1 measure single operations.
// EXPERIMENTS.md maps figures to both entry points.
package gls_test

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gls"
	"gls/glk"
	"gls/internal/figures"
	"gls/internal/sysmon"
	"gls/internal/xrand"
	"gls/locks"
)

// benchMonitor is a hint-driven monitor so benches ignore machine noise.
func benchMonitor(b *testing.B) *sysmon.Monitor {
	b.Helper()
	m := sysmon.New(sysmon.Options{DisableProbes: true})
	m.Start()
	b.Cleanup(m.Stop)
	return m
}

// benchContended splits b.N lock/unlock pairs of one lock over the given
// goroutines.
func benchContended(b *testing.B, l locks.Lock, threads int) {
	b.Helper()
	per := b.N/threads + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Lock()
				l.Unlock()
			}
		}()
	}
	wg.Wait()
}

// BenchmarkFigures runs every paper figure of internal/figures once per
// iteration at glsbench's -quick scale and reports each cell of its tables
// as a metric named by the row's labels and the column.
func BenchmarkFigures(b *testing.B) {
	for _, f := range figures.All {
		b.Run(fmt.Sprintf("%02d", f.Number), func(b *testing.B) {
			var tables []figures.Table
			for i := 0; i < b.N; i++ {
				var err error
				if tables, err = f.Run(figures.Quick()); err != nil {
					b.Fatal(err)
				}
			}
			for ti, t := range tables {
				for _, r := range t.Rows {
					prefix := ""
					if len(tables) > 1 {
						prefix = fmt.Sprintf("table%d/", ti+1)
					}
					for li, l := range r.Labels {
						prefix += t.Labels[li].Name + "=" + l + "/"
					}
					if r.Note != "" {
						prefix += strings.Trim(r.Note, " #") + "/"
					}
					for ci, c := range t.Values {
						b.ReportMetric(r.Values[ci], strings.Join(strings.Fields(prefix+c.Name), "_"))
					}
				}
			}
		})
	}
}

// hotpathGoroutines is the goroutine sweep of the hot-path (line-bounce)
// benchmark family: 1 → beyond GOMAXPROCS, so the family covers the
// uncontended, contended, and oversubscribed regimes on any machine. Short
// mode (CI) trims the sweep to its endpoints so the fixtures stay fast.
func hotpathGoroutines() []int {
	p := runtime.GOMAXPROCS(0)
	if testing.Short() {
		return []int{1, 2 * p}
	}
	set := map[int]bool{1: true, 2: true, 4: true, p: true, 2 * p: true}
	var out []int
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// hotpathModes are the GLK configurations the line-bounce family compares:
// the two frozen low-level modes plus the full adaptive lock.
func hotpathModes(mon *sysmon.Monitor) []struct {
	name string
	cfg  *glk.Config
} {
	return []struct {
		name string
		cfg  *glk.Config
	}{
		{"ticket", &glk.Config{Monitor: mon, DisableAdaptation: true}},
		{"mcs", &glk.Config{Monitor: mon, DisableAdaptation: true, InitialMode: glk.ModeMCS}},
		{"adaptive", &glk.Config{Monitor: mon}},
	}
}

// BenchmarkHotPathGLK — the line-bounce family on a bare GLK lock: one hot
// lock, empty critical sections, every goroutine hammering the arrival and
// release path. This is the microbenchmark the §3.2 padding work targets:
// any word shared between arriving goroutines turns into coherence traffic
// here.
func BenchmarkHotPathGLK(b *testing.B) {
	mon := benchMonitor(b)
	for _, mode := range hotpathModes(mon) {
		for _, g := range hotpathGoroutines() {
			cfg := mode.cfg
			b.Run(mode.name+"/goroutines="+strconv.Itoa(g), func(b *testing.B) {
				benchContended(b, glk.New(cfg), g)
			})
		}
	}
}

// BenchmarkHotPathGLS — the same family through the service: one hot key,
// so every operation is a clht.Get plus the GLK hot path. Measures the
// zero-options lookup overhead under contention.
func BenchmarkHotPathGLS(b *testing.B) {
	mon := benchMonitor(b)
	for _, mode := range hotpathModes(mon) {
		for _, g := range hotpathGoroutines() {
			cfg := mode.cfg
			b.Run(mode.name+"/goroutines="+strconv.Itoa(g), func(b *testing.B) {
				svc := gls.New(gls.Options{GLK: cfg})
				defer svc.Close()
				const hotKey = 1
				svc.Lock(hotKey) // create the entry outside the timed region
				svc.Unlock(hotKey)
				var wg sync.WaitGroup
				per := b.N/g + 1
				b.ResetTimer()
				for t := 0; t < g; t++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < per; i++ {
							svc.Lock(hotKey)
							svc.Unlock(hotKey)
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkHotPathAdjacentKeys — two goroutines, each on its own of two
// default keys created one after the other, so their entries are likely
// heap neighbours and nothing else is shared. A default key is one 64-byte
// line, so the two may share the 128-byte pair an adjacent-line prefetcher
// fetches together: this row is where that would show, through the
// service and through a Handle each.
func BenchmarkHotPathAdjacentKeys(b *testing.B) {
	mon := benchMonitor(b)
	for _, via := range []string{"gls", "handle"} {
		b.Run(via, func(b *testing.B) {
			svc := gls.New(gls.Options{GLK: &glk.Config{Monitor: mon}})
			defer svc.Close()
			keys := []uint64{1, 2}
			for _, k := range keys {
				svc.InitLock(k)
			}
			per := b.N/len(keys) + 1
			var wg sync.WaitGroup
			b.ResetTimer()
			for _, k := range keys {
				wg.Add(1)
				go func(k uint64) {
					defer wg.Done()
					if via == "handle" {
						h := svc.NewHandle()
						for i := 0; i < per; i++ {
							h.Lock(k)
							h.Unlock(k)
						}
						return
					}
					for i := 0; i < per; i++ {
						svc.Lock(k)
						svc.Unlock(k)
					}
				}(k)
			}
			wg.Wait()
		})
	}
}

// BenchmarkHotPathUncontended — uncontended Lock/Unlock latency through
// each entry point. The acceptance bar for hot-path work: these must not
// regress while the contended family improves. The first three rows repeat
// one key on one goroutine, so everything they touch stays in L1; walk and
// walkrandom are glsmark's inproc_spread shape (benchWalk), where every
// Lock misses the handle cache and finds its lock's line out of L1.
func BenchmarkHotPathUncontended(b *testing.B) {
	mon := benchMonitor(b)
	glkCfg := &glk.Config{Monitor: mon}
	b.Run("glk", func(b *testing.B) {
		l := glk.New(glkCfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Lock()
			l.Unlock()
		}
	})
	b.Run("gls", func(b *testing.B) {
		svc := gls.New(gls.Options{GLK: glkCfg})
		defer svc.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc.Lock(1)
			svc.Unlock(1)
		}
	})
	b.Run("handle", func(b *testing.B) {
		svc := gls.New(gls.Options{GLK: glkCfg})
		defer svc.Close()
		h := svc.NewHandle()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Lock(1)
			h.Unlock(1)
		}
	})
	b.Run("walk", func(b *testing.B) {
		benchWalk(b, glkCfg, func(w, i int) uint64 {
			return 0xc000100000 + uint64(w*walkKeys+i)*64 // address-like, as GLS keys are
		})
	})
	b.Run("walkrandom", func(b *testing.B) {
		rng := xrand.NewSplitMix64(2)
		benchWalk(b, glkCfg, func(int, int) uint64 { return rng.Next() | 1 })
	})
}

// walkKeys is how many keys each of benchWalk's two goroutines owns.
const walkKeys = 1024

// benchWalk is glsmark's inproc_spread shape: two goroutines, each with its
// own Handle, walk their own walkKeys default keys (key(w, i) is worker w's
// i-th) in a shuffled order. walk's strided keys measure the look-up as
// glsmark sees it; walkrandom's random ones spread across the buckets the
// way any hash spreads them, so a change to the slot select shows apart
// from how evenly a hash happens to place a stride.
func benchWalk(b *testing.B, glkCfg *glk.Config, key func(w, i int) uint64) {
	const walkers = 2
	svc := gls.New(gls.Options{GLK: glkCfg})
	defer svc.Close()
	rng := xrand.NewSplitMix64(1)
	walks := make([][]uint64, walkers)
	for w := range walks {
		for i := 0; i < walkKeys; i++ {
			k := key(w, i)
			svc.InitLock(k)
			walks[w] = append(walks[w], k)
		}
		for i := len(walks[w]) - 1; i > 0; i-- {
			j := rng.Uintn(uint64(i + 1))
			walks[w][i], walks[w][j] = walks[w][j], walks[w][i]
		}
	}
	per := b.N/walkers + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for _, keys := range walks {
		wg.Add(1)
		go func(keys []uint64) {
			defer wg.Done()
			h := svc.NewHandle()
			for i := 0; i < per; i++ {
				k := keys[i%walkKeys]
				h.Lock(k)
				h.Unlock(k)
			}
		}(keys)
	}
	wg.Wait()
}

// BenchmarkHotPathRWRead — single-goroutine RLock/RUnlock latency through
// each glsrw entry point, the read-side row of the uncontended family: the
// RW surface must stay in the same cost class as the exclusive one.
func BenchmarkHotPathRWRead(b *testing.B) {
	b.Run("glkrw", func(b *testing.B) {
		l := glk.NewRW(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.RLock()
			l.RUnlock()
		}
	})
	b.Run("gls", func(b *testing.B) {
		svc := gls.New(gls.Options{})
		defer svc.Close()
		svc.InitRWLock(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc.RLock(1)
			svc.RUnlock(1)
		}
	})
	b.Run("handle", func(b *testing.B) {
		svc := gls.New(gls.Options{})
		defer svc.Close()
		h := svc.NewHandle()
		h.RLock(1)
		h.RUnlock(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.RLock(1)
			h.RUnlock(1)
		}
	})
}

// BenchmarkHotPathRWMix is glsmark's inproc_rw shape under go test -bench:
// two goroutines, each with its own Handle, visit 16 shared InitRWLock keys
// at random, writing on 10 % of the visits and reading otherwise. The keys
// live across the b.N rounds, so their locks are measured settled, and each
// goroutine makes half the operations: ns/op is the inverse of the pair's
// throughput.
func BenchmarkHotPathRWMix(b *testing.B) {
	const workers, keys, writePct = 2, 16, 10
	svc := gls.New(gls.Options{})
	defer svc.Close()
	type cell struct {
		a, b uint64 // equal whenever no writer is inside
		_    [48]byte
	}
	ks, cells := make([]uint64, keys), make([]cell, keys)
	for i := range ks {
		ks[i] = 0xc000200000 + uint64(i)*64
		svc.InitRWLock(ks[i])
	}
	b.Run("writes=10%", func(b *testing.B) {
		per := b.N/workers + 1
		var torn atomic.Uint64
		var wg sync.WaitGroup
		b.ResetTimer()
		for w := uint64(1); w <= workers; w++ {
			wg.Add(1)
			go func(rng xrand.SplitMix64) {
				defer wg.Done()
				h := svc.NewHandle()
				for i := 0; i < per; i++ {
					r := rng.Next()
					idx := r % keys
					k, c := ks[idx], &cells[idx]
					if (r>>32)%100 < writePct {
						h.Lock(k)
						c.a++
						c.b++
						h.Unlock(k)
						continue
					}
					h.RLock(k)
					if c.a != c.b {
						torn.Add(1)
					}
					h.RUnlock(k)
				}
			}(xrand.Seeded(w))
		}
		wg.Wait()
		if n := torn.Load(); n != 0 {
			b.Fatalf("%d reads saw a torn cell", n)
		}
	})
}

// BenchmarkTable1_Interface — the cost of each Table-1 entry point.
func BenchmarkTable1_Interface(b *testing.B) {
	mon := benchMonitor(b)
	glkCfg := &glk.Config{Monitor: mon}
	b.Run("gls_lock+unlock", func(b *testing.B) {
		svc := gls.New(gls.Options{GLK: glkCfg})
		defer svc.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc.Lock(1)
			svc.Unlock(1)
		}
	})
	b.Run("gls_trylock", func(b *testing.B) {
		svc := gls.New(gls.Options{GLK: glkCfg})
		defer svc.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if svc.TryLock(1) {
				svc.Unlock(1)
			}
		}
	})
	for _, a := range locks.Algorithms() {
		a := a
		b.Run("gls_"+a.String()+"_lock", func(b *testing.B) {
			svc := gls.New(gls.Options{GLK: glkCfg})
			defer svc.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc.LockWith(a, 1)
				svc.Unlock(1)
			}
		})
	}
	b.Run("gls_free", func(b *testing.B) {
		svc := gls.New(gls.Options{GLK: glkCfg})
		defer svc.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(i) + 1
			svc.Lock(k)
			svc.Unlock(k)
			svc.Free(k)
		}
	})
}
