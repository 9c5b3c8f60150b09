// Package figures is the paper's evaluation (§3.2 microbenchmarks, Figures 1
// and 5–15), each figure defined once: its number, title and the paper's
// claim, and one run function that measures it through internal/harness or
// the modelled systems and returns its result tables. glsbench -fig prints
// the tables; the root package's BenchmarkFigures reports their cells.
package figures

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"gls"
	"gls/glk"
	"gls/internal/cycles"
	"gls/internal/harness"
	"gls/internal/sysmon"
	"gls/locks"
)

// Figure is one reproducible experiment.
type Figure struct {
	Number int
	Title  string
	Note   string // a line printed before the tables, if set
	Paper  string // the paper's claim, printed after the tables, if set
	// Systems marks the figures that run the modelled systems; only they
	// honour Scale.Contention.
	Systems bool
	run     func(Scale) ([]Table, error)
}

// All is every figure, in number order.
var All = []Figure{
	{Number: 1, Title: "Different lock strategies under varying contention", run: monitored(fig1)},
	{Number: 5, Title: "Performance crosspoint: threads for MCS to beat TICKET vs CS size", run: monitored(fig5),
		Paper: "# paper: crosspoint between 2 and 6 threads, rising with CS size; default threshold 3"},
	{Number: 6, Title: "GLK overhead vs adaptation and sampling periods", run: monitored(fig6),
		Paper: "# paper: short periods cost up to ~50%; stabilizes by 2^12; defaults 4096/128"},
	{Number: 7, Title: "Relative throughput of GLK vs best per-configuration lock", run: monitored(fig7),
		Paper: "# paper: GLK at 0.78 / 0.93 / 0.99 of the best lock per configuration"},
	{Number: 8, Title: "A single lock on varying contention (CS=1024 cycles)", run: monitored(contentionSweep(1, 0)),
		Paper: "# paper: TICKET best <=3 threads, MCS best beyond, MUTEX best oversubscribed; GLK tracks the winner"},
	{Number: 9, Title: "Eight locks on varying contention (zipf 0.9, CS=1024)", run: monitored(contentionSweep(8, 0.9)),
		Paper: "# paper: top-2 locks serve 34%/18% of requests; GLK adapts only the hot locks to mcs (~20% over MCS)"},
	{Number: 10, Title: "One lock under varying contention levels over time (14 phases)", run: fig10,
		Paper: "# paper: GLK averages ~15% above the second-best lock (MCS) by re-adapting each phase"},
	{Number: 11, Title: "Latency overhead of GLS over directly using locks (1 thread)", run: monitored(fig11),
		Paper: "# paper: ~few cycles with 1 lock (cache hit); ~30 cycles at 512 locks; more at 4096 (L1 misses)"},
	{Number: 12, Title: "Relative throughput of GLS over directly using locks (10 threads)", run: monitored(fig12),
		Paper: "# paper: overhead proportional to CS when uncontended (4096 locks); hidden by waiting when contended"},
	{Number: 13, Title: "Memcached: MUTEX vs GLK vs GLS vs GLS SPECIALIZED", run: monitored(fig13), Systems: true,
		Paper: "# paper (Ivy): GLK 1.00-1.07, GLS ~7% below GLK, GLS SPECIALIZED matches GLK (avg 1.14 vs MUTEX)"},
	{Number: 14, Title: "Five systems x {MUTEX,TICKET,MCS,GLK}, normalized to MUTEX", run: fig14, Systems: true,
		Paper: "# paper (Ivy): GLK averages 1.25x MUTEX; TICKET/MCS score 0.00 on MySQL and SQLite-64 (livelock)"},
	// The paper's second platform; a single host has one, so this is a
	// second sample of figure 14.
	{Number: 15, Title: "Same as figure 14 (second platform in the paper)", run: fig14, Systems: true,
		Note:  "# single platform available; re-running the figure-14 suite as the second sample",
		Paper: "# paper (Haswell): GLK averages 1.21x MUTEX with the same shape as Ivy"},
}

// Run measures the figure at scale s. It fails if the measurement found a
// workload broken, or if a table is not rectangular or holds a value that
// is not finite or is negative outside a Signed column.
func (f Figure) Run(s Scale) ([]Table, error) {
	if s.MaxThreads <= 0 {
		s.MaxThreads = runtime.GOMAXPROCS(0)*2 + 8
	}
	tables, err := f.run(s)
	if err != nil {
		return nil, err
	}
	return tables, check(tables)
}

// lockNames are the four locks most figures compare, in column order.
var lockNames = []string{"TICKET", "MCS", "MUTEX", "GLK"}

// fourLocks are the factories of lockNames, GLK bound to mon.
func fourLocks(mon *sysmon.Monitor) []harness.LockerFactory {
	return []harness.LockerFactory{
		harness.NewAlgorithmFactory(locks.Ticket),
		harness.NewAlgorithmFactory(locks.MCS),
		harness.NewAlgorithmFactory(locks.Mutex),
		glkLocks(glk.Config{Monitor: mon}),
	}
}

// glkLocks builds GLK locks of one configuration.
func glkLocks(cfg glk.Config) harness.LockerFactory {
	return func(n int) harness.Locker {
		ls := make(harness.SliceLocker, n)
		for i := range ls {
			ls[i] = glk.New(&cfg)
		}
		return ls
	}
}

// monitored runs a figure whose configurations share one monitor.
func monitored(run func(Scale, *sysmon.Monitor) ([]Table, error)) func(Scale) ([]Table, error) {
	return func(s Scale) ([]Table, error) {
		mon := benchMonitor()
		defer mon.Stop()
		return run(s, mon)
	}
}

// benchMonitor returns a started monitor driven purely by harness hints, so
// figure runs are deterministic with respect to unrelated machine load.
func benchMonitor() *sysmon.Monitor {
	m := sysmon.New(sysmon.Options{DisableProbes: true})
	m.Start()
	return m
}

// columns are value columns of one width and precision.
func columns(width, prec int, names ...string) []Column {
	cs := make([]Column, len(names))
	for i, n := range names {
		cs[i] = Column{Name: n, Width: width, Prec: prec}
	}
	return cs
}

// threadSweep yields the x-axis thread counts for the contention figures.
func threadSweep(ceiling int) []int {
	var out []int
	for t := 1; t <= ceiling; {
		out = append(out, t)
		switch {
		case t < 4:
			t++
		case t < 16:
			t += 2
		case t < 32:
			t += 4
		default:
			t += 8
		}
	}
	return out
}

// mops is each factory's median throughput under cfg, in Mops/s, with
// cfg's window set from s.
func mops(s Scale, cfg harness.Config, factories []harness.LockerFactory) []float64 {
	cfg.Duration = s.Duration
	out := make([]float64, len(factories))
	for i, f := range factories {
		out[i] = harness.RunMedian(cfg, f, s.Reps).Mops()
	}
	return out
}

func rel(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

// fig1 is the motivation figure: spinlock vs queue lock vs blocking lock on
// one increasingly contended lock.
func fig1(s Scale, mon *sysmon.Monitor) ([]Table, error) {
	t := Table{Labels: []Column{{Name: "threads", Width: 8}}, Values: columns(12, 3, "spinlock", "queue-lock", "blocking"), Unit: "   (Mops/s)"}
	for _, th := range threadSweep(s.MaxThreads) {
		cfg := harness.Config{Threads: th, Locks: 1, CSCycles: 256, Seed: 42, Monitor: mon}
		t.Rows = append(t.Rows, Row{Labels: []string{strconv.Itoa(th)}, Values: mops(s, cfg, fourLocks(mon)[:3])})
	}
	return []Table{t}, nil
}

// fig5 finds, per critical-section size, the thread count at which MCS
// starts outperforming TICKET (the paper's sensitivity analysis for the
// ticket→mcs threshold). Zero means TICKET won at every count.
func fig5(s Scale, mon *sysmon.Monitor) ([]Table, error) {
	t := Table{Labels: []Column{{Name: "cs_cycles", Width: 12}}, Values: []Column{{
		Name: "crosspoint_threads (first t in 2..8 where MCS >= TICKET)",
		Zero: ">8 (TICKET won everywhere)",
	}}}
	for _, cs := range []uint64{0, 2000, 4000, 6000, 8000, 10000} {
		cross := 0
		for th := 2; th <= 8; th++ {
			cfg := harness.Config{Threads: th, Locks: 1, CSCycles: cs, Seed: 7, Monitor: mon}
			if m := mops(s, cfg, fourLocks(mon)[:2]); m[1] >= m[0] { // MCS against TICKET
				cross = th
				break
			}
		}
		t.Rows = append(t.Rows, Row{Labels: []string{strconv.FormatUint(cs, 10)}, Values: []float64{float64(cross)}})
	}
	return []Table{t}, nil
}

// fig6 measures GLK's adaptation overhead as a function of the adaptation
// and sampling periods, relative to adaptation-disabled GLK.
//
// The monitor is deliberately never fed load hints: the measurement isolates
// the *bookkeeping* cost of adaptation, so the adaptive lock must converge
// to the same mode the frozen baseline is pinned to (on a small-GOMAXPROCS
// host, a hinted monitor would legitimately send the adaptive lock to mutex
// mode and the comparison would measure mode choice, not overhead).
func fig6(s Scale, mon *sysmon.Monitor) ([]Table, error) {
	// The paper uses 2 threads for the ticket row; with fewer hardware
	// contexts than two, a single-thread row gives the same pure-bookkeeping
	// measurement without scheduler noise (see EXPERIMENTS.md).
	ticketThreads := 2
	if runtime.GOMAXPROCS(0) < 2 {
		ticketThreads = 1
	}
	configs := []struct {
		threads int
		mode    glk.Mode
	}{{ticketThreads, glk.ModeTicket}, {8, glk.ModeMCS}}
	names := []string{fmt.Sprintf("%d threads (ticket)", ticketThreads), "8 threads (mcs)"}

	sweep := func(heading string, seed uint64, periods func(exp int) (sample, adapt uint64)) Table {
		t := Table{Heading: heading, Labels: []Column{{Name: "period", Width: 10}}, Values: columns(20, 3, names...)}
		for exp := 0; exp <= 12; exp += 2 {
			sample, adapt := periods(exp)
			r := Row{Labels: []string{fmt.Sprintf("2^%d", exp)}}
			for _, c := range configs {
				m := mops(s, harness.Config{Threads: c.threads, Locks: 1, CSCycles: 0, Seed: seed}, []harness.LockerFactory{
					glkLocks(glk.Config{Monitor: mon, DisableAdaptation: true, InitialMode: c.mode}),
					glkLocks(glk.Config{Monitor: mon, SamplePeriod: sample, AdaptPeriod: adapt}),
				})
				r.Values = append(r.Values, rel(m[1], m[0])) // adaptive over frozen
			}
			t.Rows = append(t.Rows, r)
		}
		return t
	}
	return []Table{
		sweep("-- relative throughput vs adaptation period (sampling = period/32, empty CS) --", 11,
			func(exp int) (uint64, uint64) {
				period := uint64(1) << exp
				return max(period/32, 1), period
			}),
		sweep("-- relative throughput vs sampling period (adaptation = 4096, empty CS) --", 13,
			func(exp int) (uint64, uint64) { return uint64(1) << exp, 4096 }),
	}, nil
}

// fig7 compares GLK against the best per-configuration lock on three
// canonical configurations.
func fig7(s Scale, mon *sysmon.Monitor) ([]Table, error) {
	configs := []struct {
		name     string
		threads  int
		spinners int
	}{
		{"1 thread", 1, 0},
		{"10 threads", 10, 0},
		{"multiprog (10 thr + 48 spin)", 10, 48},
	}
	t := Table{
		Labels: []Column{{Name: "config", Width: 30}},
		Values: append(columns(10, 3, lockNames...), Column{Name: "GLK/best-other", Width: 14, Prec: 2}),
	}
	for _, c := range configs {
		cfg := harness.Config{Threads: c.threads, Locks: 1, CSCycles: 0, Seed: 17, Monitor: mon, BackgroundSpinners: c.spinners}
		r := Row{Labels: []string{c.name}, Values: mops(s, cfg, fourLocks(mon))}
		best := max(r.Values[0], r.Values[1], r.Values[2])
		r.Values = append(r.Values, rel(r.Values[3], best))
		t.Rows = append(t.Rows, r)
	}
	return []Table{t}, nil
}

// contentionSweep is figures 8 and 9: a thread sweep over nLocks locks
// picked with the given zipf skew, 1024-cycle critical sections.
func contentionSweep(nLocks int, zipf float64) func(Scale, *sysmon.Monitor) ([]Table, error) {
	return func(s Scale, mon *sysmon.Monitor) ([]Table, error) {
		t := Table{Labels: []Column{{Name: "threads", Width: 8}}, Values: columns(10, 3, lockNames...), Unit: "   (Mops/s)"}
		for _, th := range threadSweep(s.MaxThreads) {
			cfg := harness.Config{Threads: th, Locks: nLocks, CSCycles: 1024, ZipfAlpha: zipf, Seed: 23, Monitor: mon}
			t.Rows = append(t.Rows, Row{Labels: []string{strconv.Itoa(th)}, Values: mops(s, cfg, fourLocks(mon))})
		}
		return []Table{t}, nil
	}
}

// fig10 is the time-varying workload: the paper's exact 14 phases, with 30
// background spinner threads throughout.
func fig10(s Scale) ([]Table, error) {
	phaseThreads := []int{16, 7, 19, 2, 7, 21, 7, 19, 8, 11, 24, 19, 16, 8}
	phaseCS := []uint64{971, 706, 658, 765, 525, 665, 388, 1004, 310, 678, 733, 589, 479, 675}
	phaseDur := min(s.Duration, 500*time.Millisecond) // paper: 0.5-1s phases
	phases := make([]harness.Phase, len(phaseThreads))
	for i := range phases {
		phases[i] = harness.Phase{Threads: phaseThreads[i], CSCycles: phaseCS[i], Duration: phaseDur}
	}

	t := Table{
		Labels: []Column{{Name: "phase", Width: 6}, {Name: "threads", Width: 8, Right: true}, {Name: "cs_cyc", Width: 8, Right: true}},
		Values: columns(10, 3, lockNames...),
		Unit:   "  (Mops/s)",
	}
	for p := range phases {
		t.Rows = append(t.Rows, Row{Labels: []string{strconv.Itoa(p), strconv.Itoa(phaseThreads[p]), strconv.FormatUint(phaseCS[p], 10)}})
	}
	avg := Row{Labels: []string{"average"}}
	for i := range lockNames {
		mon := benchMonitor()
		results := harness.RunPhases(phases, 1, fourLocks(mon)[i], harness.Config{Seed: 29, Monitor: mon, BackgroundSpinners: 30})
		mon.Stop()
		sum := 0.0
		for p, r := range results {
			t.Rows[p].Values = append(t.Rows[p].Values, r.Mops())
			sum += r.Mops()
		}
		avg.Values = append(avg.Values, sum/float64(len(phases)))
	}
	t.Rows = append(t.Rows, avg)
	return []Table{t}, nil
}

// glsAlgos are lockNames as GLS algorithms, 0 being the default GLK lock.
var glsAlgos = []locks.Algorithm{locks.Ticket, locks.MCS, locks.Mutex, 0}

// fig11: single-thread latency overhead of GLS over direct locking, for 1,
// 512, and 4096 locks.
func fig11(s Scale, mon *sysmon.Monitor) ([]Table, error) {
	iters := 20000
	if s.Quick {
		iters = 2000
	}
	glkCfg := &glk.Config{Monitor: mon}
	t := Table{
		Labels: []Column{{Name: "locks", Width: 8}, {Name: "algo", Width: 8}},
		Values: append(columns(12, 0, "direct(ns)", "gls(ns)"),
			Column{Name: "lock-ovh(cyc)", Width: 14, Signed: true},
			Column{Name: "unlock-ovh(cyc)", Width: 14, Signed: true}),
	}
	row := func(labels []string, direct, via harness.LatencyResult) Row {
		ovh := func(via, direct time.Duration) float64 {
			return float64(int64(cycles.FromDuration(via)) - int64(cycles.FromDuration(direct)))
		}
		return Row{Labels: labels, Values: []float64{
			float64(direct.Lock.Nanoseconds()), float64(via.Lock.Nanoseconds()),
			ovh(via.Lock, direct.Lock), ovh(via.Unlock, direct.Unlock),
		}}
	}
	for _, nLocks := range []int{1, 512, 4096} {
		for i, name := range lockNames {
			svc := gls.New(gls.Options{GLK: glkCfg, SizeHint: nLocks * 2})
			direct := harness.MeasureLatency(nLocks, iters, fourLocks(mon)[i], 31)
			viaGLS := harness.MeasureLatency(nLocks, iters, harness.ServiceLocks(svc, glsAlgos[i]), 31)
			svc.Close()
			t.Rows = append(t.Rows, row([]string{strconv.Itoa(nLocks), name}, direct, viaGLS))
		}
	}
	// The paper's lock-cache: with one lock the handle hits its cache and
	// overhead collapses to a few cycles.
	svc := gls.New(gls.Options{GLK: glkCfg})
	h := svc.NewHandle()
	handle := harness.FuncLocker{AcquireFn: func(int) { h.Lock(1) }, ReleaseFn: func(int) { h.Unlock(1) }}
	direct := harness.MeasureLatency(1, iters, glkLocks(*glkCfg), 31)
	viaHandle := harness.MeasureLatency(1, iters, func(int) harness.Locker { return handle }, 31)
	svc.Close()
	r := row([]string{"1", "GLK"}, direct, viaHandle)
	r.Note = "   # Handle (lock-cache hit)"
	t.Rows = append(t.Rows, r)
	return []Table{t}, nil
}

// fig12: relative throughput of GLS over direct locking with 10 threads.
func fig12(s Scale, mon *sysmon.Monitor) ([]Table, error) {
	glkCfg := &glk.Config{Monitor: mon}
	t := Table{Labels: []Column{{Name: "locks", Width: 8}}, Values: columns(10, 3, lockNames...), Unit: "   (GLS/direct)"}
	for _, nLocks := range []int{1, 512, 4096} {
		r := Row{Labels: []string{strconv.Itoa(nLocks)}}
		cfg := harness.Config{Threads: 10, Locks: nLocks, CSCycles: 1024, Duration: s.Duration, Seed: 37, Monitor: mon}
		for i := range lockNames {
			direct := harness.RunMedian(cfg, fourLocks(mon)[i], s.Reps)
			svc := gls.New(gls.Options{GLK: glkCfg, SizeHint: nLocks * 2})
			viaGLS := harness.RunMedian(cfg, harness.ServiceLocks(svc, glsAlgos[i]), s.Reps)
			svc.Close()
			r.Values = append(r.Values, rel(viaGLS.Throughput(), direct.Throughput()))
		}
		t.Rows = append(t.Rows, r)
	}
	return []Table{t}, nil
}
