package figures

import (
	"errors"
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

// cellRegistry returns a fresh registry when s asks for per-role
// contention: every provider the systems figures build gets one (the five
// modelled systems feed it through appsync's role labels).
func cellRegistry(s Scale) *telemetry.Registry {
	if s.Contention == nil {
		return nil
	}
	return telemetry.New(telemetry.Options{})
}

// printTopRoles writes the most contended roles of one finished cell.
func printTopRoles(s Scale, tag string, reg *telemetry.Registry, n int) {
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
	fmt.Fprintf(s.Contention, "  -- per-role contention: %s (top %d) --\n", tag, len(snap.Locks))
	if err := snap.WriteText(s.Contention); err != nil {
		fmt.Fprintf(os.Stderr, "contention report: %v\n", err)
	}
}

// memcachedWorkload runs one Memcached workload under one provider.
func memcachedWorkload(p appsync.Provider, getRatio float64, d time.Duration, threads int) (uint64, time.Duration) {
	c := memcached.New(memcached.Config{Provider: p, Buckets: 1 << 12, CapacityItems: 1 << 14})
	return memcached.RunWorkload(c, memcached.WorkloadConfig{
		GetRatio: getRatio, Keys: 16384, Threads: threads, Duration: d, Seed: 41,
	})
}

// perSec is a workload's throughput.
func perSec(ops uint64, elapsed time.Duration) float64 { return float64(ops) / elapsed.Seconds() }

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
func fig13(s Scale, mon *sysmon.Monitor) ([]Table, error) {
	glkCfg := &glk.Config{Monitor: mon}
	const threads = 8

	workloads := []struct {
		name     string
		getRatio float64
	}{
		{"GET", 0.9}, {"SET/GET", 0.5}, {"SET", 0.1},
	}
	impls := []struct {
		name string
		mk   func(reg *telemetry.Registry) (appsync.Provider, func())
	}{
		{"MUTEX", func(reg *telemetry.Registry) (appsync.Provider, func()) {
			return appsync.NewRaw(locks.Mutex).WithTelemetry(reg), func() {}
		}},
		{"GLK", func(reg *telemetry.Registry) (appsync.Provider, func()) {
			return appsync.NewGLK(glkCfg).WithTelemetry(reg), func() {}
		}},
		{"GLS", func(reg *telemetry.Registry) (appsync.Provider, func()) {
			svc := gls.New(gls.Options{GLK: glkCfg, Telemetry: reg})
			return appsync.NewGLS(svc, nil), svc.Close
		}},
		{"GLS SPECIALIZED", func(reg *telemetry.Registry) (appsync.Provider, func()) {
			svc := gls.New(gls.Options{GLK: glkCfg, Telemetry: reg})
			return appsync.NewGLS(svc, memcachedSpecialize), svc.Close
		}},
	}

	t := Table{Labels: []Column{{Name: "workload", Width: 10}}, Unit: "   (normalized to MUTEX)"}
	for _, im := range impls {
		t.Values = append(t.Values, Column{Name: im.name, Width: 16, Prec: 3})
	}
	for _, w := range workloads {
		thr := make([]float64, len(impls))
		for i, im := range impls {
			mon.AddHint(threads)
			reg := cellRegistry(s)
			p, done := im.mk(reg)
			thr[i] = perSec(memcachedWorkload(p, w.getRatio, s.Duration, threads))
			done()
			mon.AddHint(-threads)
			printTopRoles(s, fmt.Sprintf("Memcached %s / %s", w.name, im.name), reg, 5)
		}
		r := Row{Labels: []string{w.name}}
		for i := range impls {
			r.Values = append(r.Values, rel(thr[i], thr[0]))
		}
		t.Rows = append(t.Rows, r)
	}
	return []Table{t}, nil
}

// systemsLocks are figure 14's lock configurations, in column order, and
// systemsAlgos their algorithms, 0 being GLK.
var (
	systemsLocks = []string{"MUTEX", "TICKET", "MCS", "GLK"}
	systemsAlgos = []locks.Algorithm{locks.Mutex, locks.Ticket, locks.MCS, 0}
)

// fig14: the five systems under MUTEX/TICKET/MCS/GLK, normalized to MUTEX.
// Each cell runs under a fresh monitor hinted with the cell's threads.
func fig14(s Scale) ([]Table, error) {
	type workload func(p appsync.Provider) (float64, error)
	ok := func(ops uint64, elapsed time.Duration) (float64, error) { return perSec(ops, elapsed), nil }
	hamster := func(ratio float64) workload {
		return func(p appsync.Provider) (float64, error) {
			return ok(hamsterdb.RunWorkload(hamsterdb.New(p), hamsterdb.WorkloadConfig{
				ReadRatio: ratio, Keys: 1 << 14, Threads: 2, Duration: s.Duration, Seed: 43,
			}))
		}
	}
	kyotoRun := func(v kyoto.Variant) workload {
		return func(p appsync.Provider) (float64, error) {
			return ok(kyoto.RunWorkload(kyoto.New(kyoto.Config{Provider: p, Variant: v}), kyoto.WorkloadConfig{
				Keys: 1 << 13, Threads: 4, Duration: s.Duration, Seed: 47,
			}))
		}
	}
	memcachedRun := func(ratio float64) workload {
		return func(p appsync.Provider) (float64, error) { return ok(memcachedWorkload(p, ratio, s.Duration, 8)) }
	}
	mysqlThreads := runtime.GOMAXPROCS(0) * 8 // MySQL oversubscribes
	mysqlRun := func(mode minisql.Mode) workload {
		return func(p appsync.Provider) (float64, error) {
			return ok(minisql.RunWorkload(minisql.New(minisql.Config{Provider: p, Mode: mode, Nodes: 1 << 12}), minisql.WorkloadConfig{
				Threads: mysqlThreads, Duration: s.Duration, Seed: 53,
			}))
		}
	}
	sqliteRun := func(conns int) workload {
		return func(p appsync.Provider) (float64, error) {
			db := litesql.New(litesql.Config{Provider: p, Warehouses: 100})
			ops, elapsed := litesql.RunWorkload(db, p, litesql.WorkloadConfig{
				Connections: conns, Duration: s.Duration, Seed: 59,
			})
			if !db.CheckConsistency() {
				return 0, errors.New("TPC-C consistency violated")
			}
			return ok(ops, elapsed)
		}
	}

	cells := []struct {
		system, config string
		threads        int
		run            workload
	}{
		{"HamsterDB", "WT", 2, hamster(0.1)},
		{"HamsterDB", "WT/RD", 2, hamster(0.5)},
		{"HamsterDB", "RD", 2, hamster(0.9)},
		{"Kyoto", "CACHE", 4, kyotoRun(kyoto.Cache)},
		{"Kyoto", "HT DB", 4, kyotoRun(kyoto.HashDB)},
		{"Kyoto", "B+-TREE", 4, kyotoRun(kyoto.TreeDB)},
		{"Memcached", "SET", 8, memcachedRun(0.1)},
		{"Memcached", "SET/GET", 8, memcachedRun(0.5)},
		{"Memcached", "GET", 8, memcachedRun(0.9)},
		{"MySQL", "MEM", mysqlThreads, mysqlRun(minisql.MEM)},
		{"MySQL", "SSD", mysqlThreads, mysqlRun(minisql.SSD)},
		{"SQLite", "8 CON", 8, sqliteRun(8)},
		{"SQLite", "16 CON", 16, sqliteRun(16)},
		{"SQLite", "32 CON", 32, sqliteRun(32)},
		{"SQLite", "64 CON", 64, sqliteRun(64)},
	}

	t := Table{
		Labels: []Column{{Name: "system", Width: 12}, {Name: "config", Width: 10}},
		Values: columns(10, 2, systemsLocks...),
		Unit:   "   (normalized to MUTEX)",
	}
	avg := Row{Labels: []string{"Avg"}, Values: make([]float64, len(systemsLocks))}
	for _, c := range cells {
		r := Row{Labels: []string{c.system, c.config}}
		for i, name := range systemsLocks {
			tag := fmt.Sprintf("%s %s / %s", c.system, c.config, name)
			mon := benchMonitor()
			mon.AddHint(c.threads)
			reg := cellRegistry(s)
			var p appsync.Provider = appsync.NewGLK(&glk.Config{Monitor: mon}).WithTelemetry(reg)
			if a := systemsAlgos[i]; a != 0 {
				p = appsync.NewRaw(a).WithTelemetry(reg)
			}
			v, err := c.run(p)
			mon.Stop()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", tag, err)
			}
			printTopRoles(s, tag, reg, 5)
			r.Values = append(r.Values, v)
		}
		mutex := r.Values[0]
		for i := range r.Values {
			r.Values[i] = rel(r.Values[i], mutex)
			avg.Values[i] += r.Values[i] / float64(len(cells))
		}
		t.Rows = append(t.Rows, r)
	}
	t.Rows = append(t.Rows, avg)
	return []Table{t}, nil
}
