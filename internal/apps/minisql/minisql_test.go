package minisql

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"gls/glk"
	"gls/internal/apps/appsync"
	"gls/internal/sysmon"
	"gls/internal/xrand"
	"gls/locks"
)

func smallDB(p appsync.Provider, m Mode) *DB {
	return New(Config{Provider: p, Mode: m, Nodes: 256})
}

func TestModeString(t *testing.T) {
	if MEM.String() != "MEM" || SSD.String() != "SSD" {
		t.Fatal("mode names wrong")
	}
}

func TestBasicOps(t *testing.T) {
	p := appsync.NewRaw(locks.Mutex)
	db := smallDB(p, MEM)
	rng := xrand.NewSplitMix64(1)

	if v := db.GetNode(5, rng); v != 0 {
		t.Fatalf("fresh node version = %d", v)
	}
	db.UpdateNode(5, rng)
	if v := db.GetNode(5, rng); v != 1 {
		t.Fatalf("version after update = %d", v)
	}
	db.AddLink(5, 9, rng)
	db.AddLink(5, 10, rng)
	if n := db.GetLinkList(5, rng); n != 2 {
		t.Fatalf("link list len = %d, want 2", n)
	}
	if n := db.CountLinks(5, rng); n != 2 {
		t.Fatalf("CountLinks = %d", n)
	}
	if db.Commits() != 7 {
		t.Fatalf("Commits = %d, want 7", db.Commits())
	}
}

func TestLinkRetentionBound(t *testing.T) {
	p := appsync.NewRaw(locks.Ticket)
	db := smallDB(p, MEM)
	rng := xrand.NewSplitMix64(2)
	for i := uint64(0); i < 200; i++ {
		db.AddLink(1, i, rng)
	}
	if n := db.GetLinkList(1, rng); n > 64 {
		t.Fatalf("link list grew unbounded: %d", n)
	}
}

func TestConcurrentUpdatesNoLostVersions(t *testing.T) {
	for _, algo := range []locks.Algorithm{locks.Mutex, locks.Ticket, locks.MCS} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			p := appsync.NewRaw(algo)
			db := smallDB(p, MEM)
			var wg sync.WaitGroup
			const perG = 300
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := xrand.NewSplitMix64(seed)
					for i := 0; i < perG; i++ {
						db.UpdateNode(7, rng)
					}
				}(uint64(g))
			}
			wg.Wait()
			rng := xrand.NewSplitMix64(99)
			if v := db.GetNode(7, rng); v != 4*perG {
				t.Fatalf("version = %d, want %d (lost updates)", v, 4*perG)
			}
		})
	}
}

func TestSSDModeDoesIO(t *testing.T) {
	p := appsync.NewRaw(locks.Mutex)
	db := smallDB(p, SSD)
	commits, _ := RunWorkload(db, WorkloadConfig{Threads: 4, Duration: 60 * time.Millisecond, Seed: 3})
	if commits == 0 {
		t.Fatal("SSD workload committed nothing")
	}
	if db.ioWaits.Load() == 0 {
		t.Fatal("SSD mode performed no simulated I/O")
	}
}

func TestMEMModeNoIO(t *testing.T) {
	p := appsync.NewRaw(locks.Mutex)
	db := smallDB(p, MEM)
	RunWorkload(db, WorkloadConfig{Threads: 2, Duration: 30 * time.Millisecond, Seed: 4})
	if db.ioWaits.Load() != 0 {
		t.Fatal("MEM mode performed I/O")
	}
}

// TestOversubscribedWorkload runs the paper's critical configuration: many
// more worker threads than processors. It must make progress under MUTEX
// and GLK; fair spinlocks are exercised in the figure-14 bench instead
// (where their collapse is the expected result, not a test failure).
func TestOversubscribedWorkload(t *testing.T) {
	threads := runtime.GOMAXPROCS(0) * 6
	mon := sysmon.New(sysmon.Options{DisableProbes: true})
	mon.Start()
	defer mon.Stop()
	mon.SetHint(threads + 1)

	for _, tc := range []struct {
		name string
		p    appsync.Provider
	}{
		{"mutex", appsync.NewRaw(locks.Mutex)},
		{"glk", appsync.NewGLK(&glk.Config{Monitor: mon, SamplePeriod: 16, AdaptPeriod: 64})},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db := smallDB(tc.p, MEM)
			commits, _ := RunWorkload(db, WorkloadConfig{
				Threads: threads, Duration: 80 * time.Millisecond, Seed: 5,
			})
			if commits == 0 {
				t.Fatalf("no commits with %d threads on %d procs", threads, runtime.GOMAXPROCS(0))
			}
		})
	}
}

// TestGLKAdaptsDifferentLocksDifferently reproduces the paper's per-lock
// adaptation claim for MySQL: under load, the hot log mutex and the lightly
// contended dictionary mutex need not share a mode.
func TestGLKAdaptsDifferentLocksDifferently(t *testing.T) {
	mon := sysmon.New(sysmon.Options{DisableProbes: true})
	p := appsync.NewGLK(&glk.Config{Monitor: mon, SamplePeriod: 8, AdaptPeriod: 32})
	db := smallDB(p, MEM)
	RunWorkload(db, WorkloadConfig{Threads: 8, Duration: 150 * time.Millisecond, Seed: 6})

	modes := map[string]glk.Mode{}
	for role, l := range p.Locks() {
		modes[role] = l.Mode()
	}
	if len(modes) == 0 {
		t.Fatal("no GLK locks created")
	}
	// The log mutex sees every write; it should have gathered plenty of
	// statistics. We only assert the mechanism ran (per-lock stats exist),
	// not a specific mode: machine-dependent.
	logLock := p.Locks()[RoleLog]
	if logLock == nil {
		t.Fatal("log mutex not created")
	}
	if logLock.Stats().Acquired == 0 {
		t.Fatal("log mutex never acquired")
	}
}
