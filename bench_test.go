// Benchmarks mirroring every table and figure of the paper's evaluation.
// Each BenchmarkFigureNN is the quick testing.B counterpart of
// `glsbench -fig NN`, which prints the full sweep; these run one or two
// representative points per figure so `go test -bench=.` covers the whole
// evaluation in minutes. EXPERIMENTS.md maps figures to both entry points.
package gls_test

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"gls"
	"gls/glk"
	"gls/internal/apps/appsync"
	"gls/internal/apps/hamsterdb"
	"gls/internal/apps/kyoto"
	"gls/internal/apps/litesql"
	"gls/internal/apps/memcached"
	"gls/internal/apps/minisql"
	"gls/internal/cycles"
	"gls/internal/harness"
	"gls/internal/sysmon"
	"gls/internal/xrand"
	"gls/locks"
)

// benchMonitor is a hint-driven monitor so benches ignore machine noise.
func benchMonitor(b *testing.B) *sysmon.Monitor {
	b.Helper()
	m := sysmon.New(sysmon.Options{Interval: time.Millisecond, DisableProbes: true})
	m.Start()
	b.Cleanup(m.Stop)
	return m
}

// benchContended splits b.N lock/unlock pairs over the given goroutines.
func benchContended(b *testing.B, mk func() locks.Lock, threads int, cs uint64, spinners int) {
	b.Helper()
	l := mk()
	per := b.N/threads + 1
	stop := make(chan struct{})
	var spinWG sync.WaitGroup
	for i := 0; i < spinners; i++ {
		spinWG.Add(1)
		go func() {
			defer spinWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					cycles.Wait(512)
				}
			}
		}()
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Lock()
				if cs > 0 {
					cycles.Wait(cs)
				}
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(stop)
	spinWG.Wait()
}

// algoFactories are the baseline locks of the figures.
func algoFactories(mon *sysmon.Monitor) map[string]func() locks.Lock {
	return map[string]func() locks.Lock{
		"TICKET": func() locks.Lock { return locks.NewTicket() },
		"MCS":    func() locks.Lock { return locks.NewMCS() },
		"MUTEX":  func() locks.Lock { return locks.NewMutex() },
		"GLK":    func() locks.Lock { return glk.New(&glk.Config{Monitor: mon}) },
	}
}

var figureAlgos = []string{"TICKET", "MCS", "MUTEX", "GLK"}

// BenchmarkFigure01 — motivation: lock strategies under varying contention.
func BenchmarkFigure01_LockStrategies(b *testing.B) {
	mon := benchMonitor(b)
	strategies := map[string]func() locks.Lock{
		"spinlock":  func() locks.Lock { return locks.NewTicket() },
		"queuelock": func() locks.Lock { return locks.NewMCS() },
		"blocking":  func() locks.Lock { return locks.NewMutex() },
	}
	for _, name := range []string{"spinlock", "queuelock", "blocking"} {
		for _, threads := range []int{1, 4, 16} {
			mk := strategies[name]
			b.Run(name+"/threads="+strconv.Itoa(threads), func(b *testing.B) {
				mon.SetHint(threads)
				defer mon.SetHint(0)
				benchContended(b, mk, threads, 256, 0)
			})
		}
	}
}

// BenchmarkFigure05 — the TICKET/MCS crosspoint inputs (2 vs 6 threads,
// 2000-cycle critical sections).
func BenchmarkFigure05_Crosspoint(b *testing.B) {
	for _, name := range []string{"TICKET", "MCS"} {
		for _, threads := range []int{2, 6} {
			name := name
			b.Run(name+"/threads="+strconv.Itoa(threads), func(b *testing.B) {
				mk := func() locks.Lock { return locks.NewTicket() }
				if name == "MCS" {
					mk = func() locks.Lock { return locks.NewMCS() }
				}
				benchContended(b, mk, threads, 2000, 0)
			})
		}
	}
}

// BenchmarkFigure06 — adaptation overhead: adaptive GLK vs frozen GLK.
func BenchmarkFigure06_AdaptationOverhead(b *testing.B) {
	mon := benchMonitor(b)
	cases := map[string]*glk.Config{
		"adaptive/default": {Monitor: mon},
		"adaptive/fast":    {Monitor: mon, SamplePeriod: 4, AdaptPeriod: 16},
		"frozen/ticket":    {Monitor: mon, DisableAdaptation: true},
		"frozen/mcs":       {Monitor: mon, DisableAdaptation: true, InitialMode: glk.ModeMCS},
	}
	for _, name := range []string{"adaptive/default", "adaptive/fast", "frozen/ticket", "frozen/mcs"} {
		cfg := cases[name]
		b.Run(name, func(b *testing.B) {
			benchContended(b, func() locks.Lock { return glk.New(cfg) }, 2, 0, 0)
		})
	}
}

// BenchmarkFigure07 — GLK vs the best lock on the three canonical configs.
func BenchmarkFigure07_GLKvsBest(b *testing.B) {
	mon := benchMonitor(b)
	configs := []struct {
		name     string
		threads  int
		spinners int
	}{
		{"1thread", 1, 0},
		{"10threads", 10, 0},
		{"multiprog", 10, 48},
	}
	for _, cfg := range configs {
		for _, algo := range figureAlgos {
			mk := algoFactories(mon)[algo]
			b.Run(cfg.name+"/"+algo, func(b *testing.B) {
				mon.SetHint(cfg.threads + cfg.spinners)
				defer mon.SetHint(0)
				benchContended(b, mk, cfg.threads, 0, cfg.spinners)
			})
		}
	}
}

// BenchmarkFigure08 — one lock, 1024-cycle critical sections.
func BenchmarkFigure08_SingleLock(b *testing.B) {
	mon := benchMonitor(b)
	for _, threads := range []int{1, 8} {
		for _, algo := range figureAlgos {
			mk := algoFactories(mon)[algo]
			b.Run("threads="+strconv.Itoa(threads)+"/"+algo, func(b *testing.B) {
				mon.SetHint(threads)
				defer mon.SetHint(0)
				benchContended(b, mk, threads, 1024, 0)
			})
		}
	}
}

// BenchmarkFigure09 — eight locks, zipf-0.9 selection, via the harness.
func BenchmarkFigure09_EightLocksZipf(b *testing.B) {
	mon := benchMonitor(b)
	factories := map[string]harness.LockerFactory{
		"TICKET": harness.NewAlgorithmFactory(locks.Ticket),
		"MCS":    harness.NewAlgorithmFactory(locks.MCS),
		"MUTEX":  harness.NewAlgorithmFactory(locks.Mutex),
		"GLK": func(n int) harness.Locker {
			ls := make(harness.SliceLocker, n)
			for i := range ls {
				ls[i] = glk.New(&glk.Config{Monitor: mon})
			}
			return ls
		},
	}
	for _, algo := range figureAlgos {
		factory := factories[algo]
		b.Run(algo, func(b *testing.B) {
			locker := factory(8)
			rng := xrand.NewSplitMix64(23)
			zipf := xrand.NewZipf(rng, 8, 0.9)
			var wg sync.WaitGroup
			per := b.N/4 + 1
			b.ResetTimer()
			for t := 0; t < 4; t++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					r := xrand.NewSplitMix64(seed)
					z := xrand.NewZipf(r, 8, 0.9)
					for i := 0; i < per; i++ {
						k := z.Next()
						locker.Acquire(k)
						cycles.Wait(1024)
						locker.Release(k)
					}
				}(uint64(t) + 1)
			}
			wg.Wait()
			_ = zipf
		})
	}
}

// BenchmarkFigure10 — the 14-phase varying workload, compressed.
func BenchmarkFigure10_VaryingPhases(b *testing.B) {
	phaseThreads := []int{16, 7, 19, 2, 7, 21, 7, 19, 8, 11, 24, 19, 16, 8}
	phaseCS := []uint64{971, 706, 658, 765, 525, 665, 388, 1004, 310, 678, 733, 589, 479, 675}
	for _, algo := range figureAlgos {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			mon := benchMonitor(b)
			factories := map[string]harness.LockerFactory{
				"TICKET": harness.NewAlgorithmFactory(locks.Ticket),
				"MCS":    harness.NewAlgorithmFactory(locks.MCS),
				"MUTEX":  harness.NewAlgorithmFactory(locks.Mutex),
				"GLK": func(n int) harness.Locker {
					ls := make(harness.SliceLocker, n)
					for i := range ls {
						ls[i] = glk.New(&glk.Config{Monitor: mon})
					}
					return ls
				},
			}
			var totalOps uint64
			var totalTime time.Duration
			for i := 0; i < b.N; i++ {
				phases := make([]harness.Phase, len(phaseThreads))
				for p := range phases {
					phases[p] = harness.Phase{
						Threads: phaseThreads[p], CSCycles: phaseCS[p],
						Duration: 4 * time.Millisecond,
					}
				}
				results := harness.RunPhases(phases, 1, factories[algo],
					harness.Config{Seed: 29, Monitor: mon, BackgroundSpinners: 8})
				for _, r := range results {
					totalOps += r.Ops
					totalTime += r.Elapsed
				}
			}
			b.ReportMetric(float64(totalOps)/totalTime.Seconds()/1e6, "Mops/s")
		})
	}
}

// BenchmarkFigure11 — GLS latency vs direct locking, single thread.
func BenchmarkFigure11_GLSLatency(b *testing.B) {
	mon := benchMonitor(b)
	glkCfg := &glk.Config{Monitor: mon}
	for _, nLocks := range []int{1, 512, 4096} {
		n := nLocks
		b.Run("direct/locks="+strconv.Itoa(n), func(b *testing.B) {
			ls := make([]*glk.Lock, n)
			for i := range ls {
				ls[i] = glk.New(glkCfg)
			}
			rng := xrand.NewSplitMix64(31)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := ls[rng.Uintn(uint64(n))]
				l.Lock()
				l.Unlock()
			}
		})
		b.Run("gls/locks="+strconv.Itoa(n), func(b *testing.B) {
			svc := gls.New(gls.Options{GLK: glkCfg, SizeHint: n * 2})
			defer svc.Close()
			rng := xrand.NewSplitMix64(31)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := rng.Uintn(uint64(n)) + 1
				svc.Lock(k)
				svc.Unlock(k)
			}
		})
		b.Run("handle/locks="+strconv.Itoa(n), func(b *testing.B) {
			svc := gls.New(gls.Options{GLK: glkCfg, SizeHint: n * 2})
			defer svc.Close()
			h := svc.NewHandle()
			rng := xrand.NewSplitMix64(31)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := rng.Uintn(uint64(n)) + 1
				h.Lock(k)
				h.Unlock(k)
			}
		})
	}
}

// BenchmarkFigure12 — GLS vs direct locking under 10 threads, CS=1024.
func BenchmarkFigure12_GLSThroughput(b *testing.B) {
	mon := benchMonitor(b)
	glkCfg := &glk.Config{Monitor: mon}
	const nLocks, threads = 512, 10
	b.Run("direct", func(b *testing.B) {
		ls := make([]*glk.Lock, nLocks)
		for i := range ls {
			ls[i] = glk.New(glkCfg)
		}
		var wg sync.WaitGroup
		per := b.N/threads + 1
		b.ResetTimer()
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := xrand.NewSplitMix64(seed)
				for i := 0; i < per; i++ {
					l := ls[rng.Uintn(nLocks)]
					l.Lock()
					cycles.Wait(1024)
					l.Unlock()
				}
			}(uint64(t))
		}
		wg.Wait()
	})
	b.Run("gls", func(b *testing.B) {
		svc := gls.New(gls.Options{GLK: glkCfg, SizeHint: nLocks * 2})
		defer svc.Close()
		var wg sync.WaitGroup
		per := b.N/threads + 1
		b.ResetTimer()
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := xrand.NewSplitMix64(seed)
				for i := 0; i < per; i++ {
					k := rng.Uintn(nLocks) + 1
					svc.Lock(k)
					cycles.Wait(1024)
					svc.Unlock(k)
				}
			}(uint64(t))
		}
		wg.Wait()
	})
}

// memcachedBenchOps drives b.N mixed operations against one cache.
func memcachedBenchOps(b *testing.B, p appsync.Provider, getRatio float64) {
	b.Helper()
	c := memcached.New(memcached.Config{Provider: p, Buckets: 1 << 10, CapacityItems: 1 << 12})
	value := make([]byte, 64)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = "key:" + strconv.Itoa(i)
	}
	for i := 0; i < 256; i++ {
		c.Set(keys[i], value)
	}
	const threads = 4
	per := b.N/threads + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewSplitMix64(seed)
			zipf := xrand.NewZipf(rng, len(keys), 0.99)
			for i := 0; i < per; i++ {
				k := keys[zipf.Next()]
				if rng.Bool(getRatio) {
					c.Get(k)
				} else {
					c.Set(k, value)
				}
			}
		}(uint64(t) + 1)
	}
	wg.Wait()
}

// BenchmarkFigure13 — the four Memcached implementations.
func BenchmarkFigure13_Memcached(b *testing.B) {
	mon := benchMonitor(b)
	glkCfg := &glk.Config{Monitor: mon}
	impls := []struct {
		name string
		mk   func() (appsync.Provider, func())
	}{
		{"MUTEX", func() (appsync.Provider, func()) { return appsync.NewRaw(locks.Mutex), func() {} }},
		{"GLK", func() (appsync.Provider, func()) { return appsync.NewGLK(glkCfg), func() {} }},
		{"GLS", func() (appsync.Provider, func()) {
			svc := gls.New(gls.Options{GLK: glkCfg})
			return appsync.NewGLS(svc, nil), svc.Close
		}},
		{"GLS_SPECIALIZED", func() (appsync.Provider, func()) {
			svc := gls.New(gls.Options{GLK: glkCfg})
			return appsync.NewGLS(svc, func(role string) locks.Algorithm {
				switch role {
				case memcached.RoleStats, memcached.RoleCache, memcached.RoleSlabs:
					return locks.MCS
				default:
					return locks.Ticket
				}
			}), svc.Close
		}},
	}
	for _, mix := range []struct {
		name  string
		ratio float64
	}{{"GET", 0.9}, {"SETGET", 0.5}, {"SET", 0.1}} {
		for _, im := range impls {
			b.Run(mix.name+"/"+im.name, func(b *testing.B) {
				p, done := im.mk()
				defer done()
				memcachedBenchOps(b, p, mix.ratio)
			})
		}
	}
}

// systemsBenchProviders are the figure 14/15 lock configurations.
func systemsBenchProviders(mon *sysmon.Monitor) []struct {
	name string
	mk   func() appsync.Provider
} {
	glkCfg := &glk.Config{Monitor: mon}
	return []struct {
		name string
		mk   func() appsync.Provider
	}{
		{"MUTEX", func() appsync.Provider { return appsync.NewRaw(locks.Mutex) }},
		{"TICKET", func() appsync.Provider { return appsync.NewRaw(locks.Ticket) }},
		{"MCS", func() appsync.Provider { return appsync.NewRaw(locks.MCS) }},
		{"GLK", func() appsync.Provider { return appsync.NewGLK(glkCfg) }},
	}
}

// BenchmarkFigure14_HamsterDB — global-lock store, 2 threads, 50% reads.
func BenchmarkFigure14_HamsterDB(b *testing.B) {
	mon := benchMonitor(b)
	for _, pr := range systemsBenchProviders(mon) {
		b.Run(pr.name, func(b *testing.B) {
			db := hamsterdb.New(pr.mk())
			value := make([]byte, 64)
			const threads = 2
			per := b.N/threads + 1
			var wg sync.WaitGroup
			b.ResetTimer()
			for t := 0; t < threads; t++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := xrand.NewSplitMix64(seed)
					for i := 0; i < per; i++ {
						k := rng.Uintn(1 << 14)
						if rng.Bool(0.5) {
							db.Find(k)
						} else {
							db.Insert(k, value)
						}
					}
				}(uint64(t) + 1)
			}
			wg.Wait()
		})
	}
}

// BenchmarkFigure14_Kyoto — the three Kyoto variants, 4 threads.
func BenchmarkFigure14_Kyoto(b *testing.B) {
	mon := benchMonitor(b)
	for _, variant := range []kyoto.Variant{kyoto.Cache, kyoto.HashDB, kyoto.TreeDB} {
		for _, pr := range systemsBenchProviders(mon) {
			variant := variant
			b.Run(variant.String()+"/"+pr.name, func(b *testing.B) {
				db := kyoto.New(kyoto.Config{Provider: pr.mk(), Variant: variant})
				value := make([]byte, 64)
				const threads = 4
				per := b.N/threads + 1
				var wg sync.WaitGroup
				b.ResetTimer()
				for t := 0; t < threads; t++ {
					wg.Add(1)
					go func(seed uint64) {
						defer wg.Done()
						rng := xrand.NewSplitMix64(seed)
						for i := 0; i < per; i++ {
							k := rng.Uintn(1 << 13)
							if rng.Bool(0.3) {
								db.Set(k, value)
							} else {
								db.Get(k)
							}
						}
					}(uint64(t) + 1)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkFigure14_MySQL — LinkBench-like, oversubscribed workers.
func BenchmarkFigure14_MySQL(b *testing.B) {
	mon := benchMonitor(b)
	for _, mode := range []minisql.Mode{minisql.MEM, minisql.SSD} {
		for _, pr := range systemsBenchProviders(mon) {
			mode := mode
			b.Run(mode.String()+"/"+pr.name, func(b *testing.B) {
				db := minisql.New(minisql.Config{Provider: pr.mk(), Mode: mode, Nodes: 1 << 10})
				const threads = 8
				mon.SetHint(threads)
				defer mon.SetHint(0)
				per := b.N/threads + 1
				var wg sync.WaitGroup
				b.ResetTimer()
				for t := 0; t < threads; t++ {
					wg.Add(1)
					go func(seed uint64) {
						defer wg.Done()
						rng := xrand.NewSplitMix64(seed)
						for i := 0; i < per; i++ {
							id := rng.Uintn(1 << 10)
							switch rng.Uintn(4) {
							case 0:
								db.GetLinkList(id, rng)
							case 1:
								db.GetNode(id, rng)
							case 2:
								db.AddLink(id, rng.Next(), rng)
							default:
								db.UpdateNode(id, rng)
							}
						}
					}(uint64(t) + 1)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkFigure14_SQLite — TPC-C-like, 8 connections.
func BenchmarkFigure14_SQLite(b *testing.B) {
	mon := benchMonitor(b)
	for _, pr := range systemsBenchProviders(mon) {
		b.Run(pr.name, func(b *testing.B) {
			p := pr.mk()
			db := litesql.New(litesql.Config{Provider: p, Warehouses: 20})
			const conns = 8
			mon.SetHint(conns)
			defer mon.SetHint(0)
			per := b.N/conns + 1
			var wg sync.WaitGroup
			b.ResetTimer()
			for t := 0; t < conns; t++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					c := db.NewConn(p, id, 61)
					rng := xrand.NewSplitMix64(uint64(id) + 100)
					for i := 0; i < per; i++ {
						r := rng.Float64()
						switch {
						case r < 0.45:
							c.NewOrder()
						case r < 0.88:
							c.Payment()
						default:
							c.OrderStatus()
						}
					}
				}(t)
			}
			wg.Wait()
			if !db.CheckConsistency() {
				b.Fatal("consistency violated")
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
				benchContended(b, func() locks.Lock { return glk.New(cfg) }, g, 0, 0)
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

// BenchmarkHotPathUncontended — single-goroutine Lock/Unlock latency through
// each entry point. The acceptance bar for hot-path work: these must not
// regress while the contended family improves.
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
