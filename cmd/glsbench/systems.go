package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"gls"
	"gls/glk"
	"gls/internal/apps/appsync"
	"gls/internal/apps/hamsterdb"
	"gls/internal/apps/kyoto"
	"gls/internal/apps/litesql"
	"gls/internal/apps/memcached"
	"gls/internal/apps/minisql"
	"gls/internal/sysmon"
	"gls/locks"
	"gls/telemetry"
)

// cellRegistry returns a fresh registry when -contention is on: every
// provider the systems figures build gets one, and per-role contention is
// printed after each cell (the five modelled systems feed the registry
// through appsync's role labels).
func cellRegistry() *telemetry.Registry {
	if !*contention {
		return nil
	}
	return telemetry.New(telemetry.Options{})
}

// printTopRoles prints the most contended roles of one finished cell.
func printTopRoles(tag string, reg *telemetry.Registry, n int) {
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	if len(snap.Locks) == 0 {
		return
	}
	if len(snap.Locks) > n {
		snap.Locks = snap.Locks[:n] // already sorted most-contended first
	}
	fmt.Printf("  -- per-role contention: %s (top %d) --\n", tag, len(snap.Locks))
	if err := snap.WriteText(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "contention report: %v\n", err)
	}
}

// memcachedThroughput runs one Memcached workload under one provider.
func memcachedThroughput(p appsync.Provider, getRatio float64, d time.Duration, threads int) float64 {
	c := memcached.New(memcached.Config{Provider: p, Buckets: 1 << 12, CapacityItems: 1 << 14})
	ops, elapsed := memcached.RunWorkload(c, memcached.WorkloadConfig{
		GetRatio: getRatio, Keys: 16384, Threads: threads, Duration: d, Seed: 41,
	})
	return float64(ops) / elapsed.Seconds()
}

// memcachedSpecialize is the paper's GLS SPECIALIZED assignment: MCS for the
// contended global locks, TICKET for the item stripes and the rest (§5.1).
func memcachedSpecialize(role string) locks.Algorithm {
	switch role {
	case memcached.RoleStats, memcached.RoleCache, memcached.RoleSlabs:
		return locks.MCS
	default:
		return locks.Ticket
	}
}

// fig13: the four Memcached implementations of §5.1, normalized to MUTEX.
func fig13(o opts) {
	mon := benchMonitor()
	defer mon.Stop()
	glkCfg := &glk.Config{Monitor: mon}
	threads := 8

	workloads := []struct {
		name     string
		getRatio float64
	}{
		{"GET", 0.9}, {"SET/GET", 0.5}, {"SET", 0.1},
	}
	impls := []struct {
		name string
		mk   func() (appsync.Provider, *telemetry.Registry, func())
	}{
		{"MUTEX", func() (appsync.Provider, *telemetry.Registry, func()) {
			reg := cellRegistry()
			p := appsync.NewRaw(locks.Mutex)
			if reg != nil {
				p.WithTelemetry(reg)
			}
			return p, reg, func() {}
		}},
		{"GLK", func() (appsync.Provider, *telemetry.Registry, func()) {
			reg := cellRegistry()
			p := appsync.NewGLK(glkCfg)
			if reg != nil {
				p.WithTelemetry(reg)
			}
			return p, reg, func() {}
		}},
		{"GLS", func() (appsync.Provider, *telemetry.Registry, func()) {
			reg := cellRegistry()
			svc := gls.New(gls.Options{GLK: glkCfg, Telemetry: reg})
			return appsync.NewGLS(svc, nil), reg, svc.Close
		}},
		{"GLS SPECIALIZED", func() (appsync.Provider, *telemetry.Registry, func()) {
			reg := cellRegistry()
			svc := gls.New(gls.Options{GLK: glkCfg, Telemetry: reg})
			return appsync.NewGLS(svc, memcachedSpecialize), reg, svc.Close
		}},
	}

	fmt.Printf("%-10s", "workload")
	for _, im := range impls {
		fmt.Printf(" %16s", im.name)
	}
	fmt.Println("   (normalized to MUTEX)")
	for _, w := range workloads {
		thr := make([]float64, len(impls))
		for i, im := range impls {
			mon.AddHint(threads)
			p, reg, done := im.mk()
			thr[i] = memcachedThroughput(p, w.getRatio, o.duration, threads)
			done()
			mon.AddHint(-threads)
			printTopRoles(fmt.Sprintf("Memcached %s / %s", w.name, im.name), reg, 5)
		}
		fmt.Printf("%-10s", w.name)
		for i := range impls {
			fmt.Printf(" %16.3f", rel(thr[i], thr[0]))
		}
		fmt.Println()
	}
	fmt.Println("# paper (Ivy): GLK 1.00-1.07, GLS ~7% below GLK, GLS SPECIALIZED matches GLK (avg 1.14 vs MUTEX)")
}

// systemProvider builds one provider per lock configuration, attached to
// reg when -contention asked for one.
func systemProvider(name string, glkCfg *glk.Config, reg *telemetry.Registry) appsync.Provider {
	mkRaw := func(a locks.Algorithm) appsync.Provider {
		p := appsync.NewRaw(a)
		if reg != nil {
			p.WithTelemetry(reg)
		}
		return p
	}
	switch name {
	case "MUTEX":
		return mkRaw(locks.Mutex)
	case "TICKET":
		return mkRaw(locks.Ticket)
	case "MCS":
		return mkRaw(locks.MCS)
	default:
		p := appsync.NewGLK(glkCfg)
		if reg != nil {
			p.WithTelemetry(reg)
		}
		return p
	}
}

// fig14: the five systems under MUTEX/TICKET/MCS/GLK, normalized to MUTEX.
func fig14(o opts) {
	runSystemsFigure(o)
	fmt.Println("# paper (Ivy): GLK averages 1.25x MUTEX; TICKET/MCS score 0.00 on MySQL and SQLite-64 (livelock)")
}

// fig15 is the paper's second platform; a single-host reproduction has one
// platform, so this re-runs the same suite (a second sample of figure 14).
func fig15(o opts) {
	fmt.Println("# single platform available; re-running the figure-14 suite as the second sample")
	runSystemsFigure(o)
	fmt.Println("# paper (Haswell): GLK averages 1.21x MUTEX with the same shape as Ivy")
}

func runSystemsFigure(o opts) {
	lockNames := []string{"MUTEX", "TICKET", "MCS", "GLK"}

	type cell struct {
		system, config string
		run            func(p appsync.Provider, mon *sysmon.Monitor) float64
	}
	hamster := func(ratio float64) func(appsync.Provider, *sysmon.Monitor) float64 {
		return func(p appsync.Provider, mon *sysmon.Monitor) float64 {
			mon.AddHint(2)
			defer mon.AddHint(-2)
			db := hamsterdb.New(p)
			ops, el := hamsterdb.RunWorkload(db, hamsterdb.WorkloadConfig{
				ReadRatio: ratio, Keys: 1 << 14, Threads: 2, Duration: o.duration, Seed: 43,
			})
			return float64(ops) / el.Seconds()
		}
	}
	kyotoRun := func(v kyoto.Variant) func(appsync.Provider, *sysmon.Monitor) float64 {
		return func(p appsync.Provider, mon *sysmon.Monitor) float64 {
			mon.AddHint(4)
			defer mon.AddHint(-4)
			db := kyoto.New(kyoto.Config{Provider: p, Variant: v})
			ops, el := kyoto.RunWorkload(db, kyoto.WorkloadConfig{
				Keys: 1 << 13, Threads: 4, Duration: o.duration, Seed: 47,
			})
			return float64(ops) / el.Seconds()
		}
	}
	memcachedRun := func(ratio float64) func(appsync.Provider, *sysmon.Monitor) float64 {
		return func(p appsync.Provider, mon *sysmon.Monitor) float64 {
			mon.AddHint(8)
			defer mon.AddHint(-8)
			return memcachedThroughput(p, ratio, o.duration, 8)
		}
	}
	mysqlRun := func(mode minisql.Mode) func(appsync.Provider, *sysmon.Monitor) float64 {
		return func(p appsync.Provider, mon *sysmon.Monitor) float64 {
			threads := runtime.GOMAXPROCS(0) * 8 // MySQL oversubscribes
			mon.AddHint(threads)
			defer mon.AddHint(-threads)
			db := minisql.New(minisql.Config{Provider: p, Mode: mode, Nodes: 1 << 12})
			ops, el := minisql.RunWorkload(db, minisql.WorkloadConfig{
				Threads: threads, Duration: o.duration, Seed: 53,
			})
			return float64(ops) / el.Seconds()
		}
	}
	sqliteRun := func(conns int) func(appsync.Provider, *sysmon.Monitor) float64 {
		return func(p appsync.Provider, mon *sysmon.Monitor) float64 {
			mon.AddHint(conns)
			defer mon.AddHint(-conns)
			db := litesql.New(litesql.Config{Provider: p, Warehouses: 100})
			ops, el := litesql.RunWorkload(db, p, litesql.WorkloadConfig{
				Connections: conns, Duration: o.duration, Seed: 59,
			})
			return float64(ops) / el.Seconds()
		}
	}

	cells := []cell{
		{"HamsterDB", "WT", hamster(0.1)},
		{"HamsterDB", "WT/RD", hamster(0.5)},
		{"HamsterDB", "RD", hamster(0.9)},
		{"Kyoto", "CACHE", kyotoRun(kyoto.Cache)},
		{"Kyoto", "HT DB", kyotoRun(kyoto.HashDB)},
		{"Kyoto", "B+-TREE", kyotoRun(kyoto.TreeDB)},
		{"Memcached", "SET", memcachedRun(0.1)},
		{"Memcached", "SET/GET", memcachedRun(0.5)},
		{"Memcached", "GET", memcachedRun(0.9)},
		{"MySQL", "MEM", mysqlRun(minisql.MEM)},
		{"MySQL", "SSD", mysqlRun(minisql.SSD)},
		{"SQLite", "8 CON", sqliteRun(8)},
		{"SQLite", "16 CON", sqliteRun(16)},
		{"SQLite", "32 CON", sqliteRun(32)},
		{"SQLite", "64 CON", sqliteRun(64)},
	}

	fmt.Printf("%-12s %-10s %10s %10s %10s %10s   (normalized to MUTEX)\n",
		"system", "config", lockNames[0], lockNames[1], lockNames[2], lockNames[3])
	sums := make([]float64, len(lockNames))
	for _, c := range cells {
		thr := make([]float64, len(lockNames))
		for i, ln := range lockNames {
			mon := benchMonitor()
			glkCfg := &glk.Config{Monitor: mon}
			reg := cellRegistry()
			thr[i] = c.run(systemProvider(ln, glkCfg, reg), mon)
			mon.Stop()
			printTopRoles(fmt.Sprintf("%s %s / %s", c.system, c.config, ln), reg, 5)
		}
		fmt.Printf("%-12s %-10s", c.system, c.config)
		for i := range lockNames {
			v := rel(thr[i], thr[0])
			sums[i] += v
			fmt.Printf(" %10.2f", v)
		}
		fmt.Println()
	}
	fmt.Printf("%-23s", "Avg")
	for i := range lockNames {
		fmt.Printf(" %10.2f", sums[i]/float64(len(cells)))
	}
	fmt.Println()
}
