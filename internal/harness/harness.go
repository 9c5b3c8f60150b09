// Package harness implements the paper's microbenchmark methodology (§3.2):
//
//	"Threads execute in a loop, performing lock and unlock operations on
//	lock object(s). On every run, we configure (i) the number of threads,
//	(ii) the number of lock objects, and (iii) the duration of the critical
//	section (in CPU cycles). Furthermore, after every loop iteration,
//	threads wait for a short duration to avoid long runs. On every loop
//	iteration, each thread selects a lock object at random. Our results use
//	the median value of 11 repetitions."
//
// Locks are abstracted behind Locker so the same workloads drive raw
// algorithms, GLK, and GLS-mediated locking.
//
// Start and Drive are that loop for every closed-loop load in the module:
// the figures' Run, the modelled systems' workloads and the tools' streams.
// A body gets its Worker, does its set-up, and loops on Next; the window
// opens at the gate its first Next waits at, once every worker has arrived,
// and closes at the stop. Worker i draws from its own stream, seeded
// seed + i·0x9e3779b9.
package harness

import (
	"sort"
	"time"

	"gls"
	"gls/internal/backoff"
	"gls/internal/cycles"
	"gls/internal/sysmon"
	"gls/internal/xrand"
	"gls/locks"
)

// Locker provides numbered locks to the workload. Implementations must be
// safe for concurrent use by many workers.
type Locker interface {
	// Acquire locks lock number i.
	Acquire(i int)
	// Release unlocks lock number i. Called by the acquiring goroutine.
	Release(i int)
}

// LockerFactory builds a Locker exposing n locks.
type LockerFactory func(n int) Locker

// SliceLocker adapts a slice of locks to the Locker interface.
type SliceLocker []locks.Lock

// Acquire implements Locker.
func (s SliceLocker) Acquire(i int) { s[i].Lock() }

// Release implements Locker.
func (s SliceLocker) Release(i int) { s[i].Unlock() }

// NewAlgorithmFactory returns a LockerFactory creating n fresh locks of the
// given algorithm.
func NewAlgorithmFactory(a locks.Algorithm) LockerFactory {
	return func(n int) Locker {
		ls := make(SliceLocker, n)
		for i := range ls {
			ls[i] = locks.New(a)
		}
		return ls
	}
}

// FuncLocker builds a Locker from two functions.
type FuncLocker struct {
	AcquireFn func(i int)
	ReleaseFn func(i int)
}

// Acquire implements Locker.
func (f FuncLocker) Acquire(i int) { f.AcquireFn(i) }

// Release implements Locker.
func (f FuncLocker) Release(i int) { f.ReleaseFn(i) }

// ServiceLocks drives lock number i through key i+1 of svc, with LockWith(a)
// or, for a zero a, Lock: the service's default GLK lock.
func ServiceLocks(svc *gls.Service, a locks.Algorithm) LockerFactory {
	return func(int) Locker {
		if a == 0 {
			return FuncLocker{
				AcquireFn: func(i int) { svc.Lock(uint64(i) + 1) },
				ReleaseFn: func(i int) { svc.Unlock(uint64(i) + 1) },
			}
		}
		return FuncLocker{
			AcquireFn: func(i int) { svc.LockWith(a, uint64(i)+1) },
			ReleaseFn: func(i int) { svc.Unlock(uint64(i) + 1) },
		}
	}
}

// Config is one microbenchmark configuration.
type Config struct {
	// Threads is the number of worker goroutines.
	Threads int
	// Locks is the number of lock objects; each iteration picks one.
	Locks int
	// CSCycles is the critical-section duration in CPU cycles.
	CSCycles uint64
	// ZipfAlpha skews lock selection (0 = uniform; Figure 9 uses 0.9).
	ZipfAlpha float64
	// Duration is the measurement window.
	Duration time.Duration
	// Seed makes lock selection reproducible.
	Seed uint64
	// BackgroundSpinners adds CPU-bound goroutines that do no locking —
	// the paper's multiprogramming generator ("we initialize 48 additional
	// threads that just spin locally").
	BackgroundSpinners int
	// Monitor, if set, receives a runnable-count hint covering workers and
	// spinners for the run's duration.
	Monitor *sysmon.Monitor
}

// delayCycles is the out-of-CS pause per iteration, the paper's "short
// duration" ("threads wait for a short duration to avoid long runs").
const delayCycles = 64

// Result is one measured run.
type Result struct {
	Ops     uint64
	Elapsed time.Duration
	// PerThread is the per-worker operation count, for fairness analysis.
	PerThread []uint64
}

// Throughput returns operations per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Mops returns millions of operations per second (the paper's y-axis).
func (r Result) Mops() float64 { return r.Throughput() / 1e6 }

// Run executes one measurement with the given lock provider.
func Run(cfg Config, factory LockerFactory) Result {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Locks <= 0 {
		cfg.Locks = 1
	}
	cycles.Calibrate()
	locker := factory(cfg.Locks)

	if cfg.Monitor != nil {
		cfg.Monitor.AddHint(cfg.Threads + cfg.BackgroundSpinners)
		defer cfg.Monitor.AddHint(-(cfg.Threads + cfg.BackgroundSpinners))
	}

	// Background spinners: runnable, CPU-bound, no locking.
	defer Start(cfg.BackgroundSpinners, 0, func(w *Worker) {
		for w.Next() {
			cycles.Wait(512)
			backoff.Yield()
		}
	})()

	return Drive(cfg.Threads, cfg.Duration, cfg.Seed, func(w *Worker) {
		var zipf *xrand.Zipf
		if cfg.ZipfAlpha > 0 && cfg.Locks > 1 {
			zipf = xrand.NewZipf(&w.Rng, cfg.Locks, cfg.ZipfAlpha)
		}
		for w.Next() {
			i := 0
			if cfg.Locks > 1 {
				if zipf != nil {
					i = zipf.Next()
				} else {
					i = int(w.Rng.Uintn(uint64(cfg.Locks)))
				}
			}
			locker.Acquire(i)
			if cfg.CSCycles > 0 {
				cycles.Wait(cfg.CSCycles)
			}
			locker.Release(i)
			cycles.Wait(delayCycles)
		}
	})
}

// RunMedian runs the configuration reps times and returns the run with the
// median throughput (the paper uses the median of 11 repetitions).
func RunMedian(cfg Config, factory LockerFactory, reps int) Result {
	if reps <= 1 {
		return Run(cfg, factory)
	}
	results := make([]Result, reps)
	for i := range results {
		results[i] = Run(cfg, factory)
	}
	sort.Slice(results, func(i, j int) bool {
		return results[i].Throughput() < results[j].Throughput()
	})
	return results[reps/2]
}

// Phase is one segment of a time-varying workload (Figure 10).
type Phase struct {
	Threads  int
	CSCycles uint64
	Duration time.Duration
}

// RunPhases executes the phases sequentially against one persistent Locker
// (the same lock objects live across phases, as in Figure 10, so an
// adaptive lock carries its state from phase to phase). It returns one
// Result per phase.
func RunPhases(phases []Phase, nLocks int, factory LockerFactory, base Config) []Result {
	locker := factory(nLocks)
	persist := func(int) Locker { return locker }
	out := make([]Result, len(phases))
	for i, p := range phases {
		cfg := base
		cfg.Threads = p.Threads
		cfg.CSCycles = p.CSCycles
		cfg.Duration = p.Duration
		cfg.Locks = nLocks
		cfg.Seed = base.Seed + uint64(i)*104729
		out[i] = Run(cfg, persist)
	}
	return out
}

// LatencyResult is the Figure-11 measurement: mean per-operation lock and
// unlock latencies on a single thread.
type LatencyResult struct {
	Lock   time.Duration
	Unlock time.Duration
}

// MeasureLatency times individual lock and unlock calls on a single thread,
// picking a lock at random per iteration (the paper's Figure 11 setup).
// Timestamping costs the same for every Locker, so latency *differences*
// between Lockers (e.g. GLS vs. direct locking) isolate the middleware
// overhead the figure reports.
func MeasureLatency(nLocks, iters int, factory LockerFactory, seed uint64) LatencyResult {
	if nLocks <= 0 {
		nLocks = 1
	}
	if iters <= 0 {
		iters = 1
	}
	locker := factory(nLocks)
	rng := xrand.NewSplitMix64(seed)
	// Pre-draw the indices so RNG cost stays outside the timed regions.
	idx := make([]int, iters)
	for i := range idx {
		if nLocks > 1 {
			idx[i] = int(rng.Uintn(uint64(nLocks)))
		}
	}
	var lockSum, unlockSum time.Duration
	for _, i := range idx {
		t0 := time.Now()
		locker.Acquire(i)
		t1 := time.Now()
		locker.Release(i)
		t2 := time.Now()
		lockSum += t1.Sub(t0)
		unlockSum += t2.Sub(t1)
	}
	return LatencyResult{
		Lock:   lockSum / time.Duration(iters),
		Unlock: unlockSum / time.Duration(iters),
	}
}
