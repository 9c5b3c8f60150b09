package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// config is one run.
type config struct {
	workload string
	seed     uint64
	cycles   int
	phase    time.Duration // workload phase of a cycle
	probe    time.Duration // probe phase of a cycle
	rung     time.Duration // time spent on each rung of the ladder
	trace    bool
	setups   int           // set-up repetitions at least; setup_s is their median
	setupFor time.Duration // short set-ups repeat until this much time went into them
	bigKeys  int           // table size of the gls.bigtable_ns rung
	spanOps  int           // ops whose spans a traced run keeps
	warmup   int           // 0: the fixed counts (200 000 in-process, 20 000 on the wire)
	breakCS  bool          // self-test: inproc_hot bumps its counter outside the lock
	outDir   string
}

const (
	defaultPhase    = 200 * time.Millisecond
	defaultProbe    = 40 * time.Millisecond
	defaultRung     = 240 * time.Millisecond
	defaultSetups   = 3
	defaultSetupFor = time.Second
	maxSetups       = 25
	defaultBig      = 1 << 20
	defaultSpanOps  = 50_000
)

// newConfig is a run as the benchmark defines it. The cycle and phase
// lengths, the set-up repetitions and the rest are part of the design, not
// options: only the tests build a config by hand, to run short. seconds fits
// whole cycles into the measured part; a traced run cycles half as long,
// the ladder it adds takes the rest of the time.
func newConfig(workload string, seed uint64, trace bool, seconds float64, outDir string) config {
	n := int(seconds / (defaultPhase + defaultProbe).Seconds())
	if trace {
		n /= 2
	}
	return config{
		workload: workload, seed: seed, trace: trace,
		cycles: max(n, 2), phase: defaultPhase, probe: defaultProbe, rung: defaultRung,
		setups: defaultSetups, setupFor: defaultSetupFor, bigKeys: defaultBig, spanOps: defaultSpanOps, outDir: outDir,
	}
}

// env is the run-environment record every result file carries.
type env struct {
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Seed          uint64  `json:"seed"`
	Cycles        int     `json:"cycles"`
	PhaseMS       float64 `json:"phase_ms"`
	ProbeMS       float64 `json:"probe_ms"`
	Setups        int     `json:"setups"`
	PlanHash      string  `json:"plan_hash"`
	TimerNS       float64 `json:"timer_overhead_ns"`
	TimedOpPeriod int     `json:"timed_op_period"`
	TimedBurst    int     `json:"timed_burst"`
}

// result is one run of one workload, as written to the result file.
type result struct {
	Env       env                `json:"env"`
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	SelfShare map[string]float64 `json:"span_self_time_share,omitempty"`
	Cycles    []cycleOut         `json:"cycles"`
	TraceFile string             `json:"trace_file,omitempty"`
}

func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// timerOverhead is the median cost of one clock read, from n back-to-back
// pairs.
func timerOverhead(n int) float64 {
	d := make([]float64, n)
	for i := range d {
		a := now()
		d[i] = float64(now() - a)
	}
	return median(d)
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// cycleOut is one cycle as the result file shows it: the series the medians
// were taken over, for whoever wants to see the run's weather.
type cycleOut struct {
	Traced    bool    `json:"traced,omitempty"`
	OpsPerS   float64 `json:"ops_per_s"`
	ProbePerS float64 `json:"probe_per_s"`
	P50US     float64 `json:"lat_p50_us"`
	P95US     float64 `json:"lat_p95_us"`
	CPUUSOp   float64 `json:"cpu_us_per_op"`
}

// cycleRec is what one cycle measured, summed over the slots.
type cycleRec struct {
	traced          bool
	burst           int // ops per latency sample (0: one, stamped)
	ops             uint64
	rate, probeRate float64 // Σ over slots of ops ÷ that slot's own elapsed time
	lat             *hist
	// Read by slot 0 at the workload phase's edges.
	cpuNS, wallNS      int64
	mallocs, mallocMem uint64 // traced runs only: the reads stop the world
}

type runner struct {
	cfg    config
	in     instance
	mu     sync.Mutex
	cycles []cycleRec
	traces []slotTrace
	// goroutinesMax is sampled by slot 0 at phase edges.
	goroutinesMax int
}

// edgeReader is implemented by instances that sample something at phase
// edges (the wire workloads read Stats().Waiting).
type edgeReader interface{ edge() }

func (r *runner) slot0Edge(c *cycleRec, end bool) {
	cpu, t := cpuNS(), now()
	var ms runtime.MemStats
	if r.cfg.trace {
		runtime.ReadMemStats(&ms)
	}
	if !end {
		c.cpuNS, c.wallNS, c.mallocs, c.mallocMem = -cpu, -t, -ms.Mallocs, -ms.TotalAlloc
	} else {
		c.cpuNS += cpu
		c.wallNS += t
		c.mallocs += ms.Mallocs
		c.mallocMem += ms.TotalAlloc
	}
	r.goroutinesMax = max(r.goroutinesMax, runtime.NumGoroutine())
	if e, ok := r.in.(edgeReader); ok {
		e.edge()
	}
}

// runPhase is the driver loop, the same for workload and probe. On the
// wire (every 1, burst 0) each op is stamped at the API's boundaries and its
// time inside the API is one latency sample. In process that does not work:
// a clock read costs 37 or 48 ns here, depending on the minute, an op 80,
// and a stamped op's sample was more clock than op — its p95 moved by a
// quarter between runs of the same code however the reads were taken out.
// So of every `every` ops the last `burst` are timed as one, two clock reads
// around all of them, and the sample is the burst: percentiles are taken
// over bursts and divided by the burst length (one read's worth, 2 to 3 ns
// per op, stays in). A traced cycle stamps every op (every 1, burst 0):
// its spans need the boundaries, its latencies are not reported.
func runPhase(deadline int64, every, burst, slot int, fast func(int), timed func(int, *stamps), lat *hist, tr *slotTrace) (n uint64, start, end int64) {
	var st stamps
	start = now()
	for {
		for j := max(burst, 1); j < every; j++ {
			fast(slot)
		}
		if burst > 0 {
			t := now()
			for j := 0; j < burst; j++ {
				fast(slot)
			}
			end = now()
			lat.add(end - t)
		} else {
			timed(slot, &st)
			end = st.end
			lat.add(st.lat())
			if tr != nil {
				tr.add(&st)
			}
		}
		n += uint64(every)
		if end >= deadline {
			return n, start, end
		}
	}
}

// rotation is how many goroutines take turns being one slot's worker, a
// cycle each. The program's locks pick a presence-counter stripe from the
// calling goroutine's stack address (stripe.Self), so two workers that
// happen to land on one stripe — one pair in eight — contend on a line the
// others do not: a whole inproc_hot run 25 % slower (p50 0.65 against
// 0.49 µs), decided when the goroutines are born. Rotating turns that coin,
// flipped once per process, into eight pairs sampled by every run, and the
// median over cycles reports the common pair.
const rotation = 8

// slotLoop runs one slot: its goroutines hand the cycles round, each
// waking its successor as it finishes. Cycles follow the wall-clock
// schedule every slot shares, so phases line up across slots without a
// coordinator that would need a CPU.
func (r *runner) slotLoop(slot int, t0 int64) {
	hs := [2]*hist{newHist(), newHist()}
	turns := make([]chan int, rotation)
	for g := range turns {
		turns[g] = make(chan int, 1)
	}
	var wg sync.WaitGroup
	for g := range turns {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := range turns[g] {
				r.cycle(slot, c, t0, hs)
				if c+1 == len(r.cycles) {
					for _, t := range turns {
						close(t)
					}
					return
				}
				turns[(g+1)%rotation] <- c + 1
			}
		}(g)
	}
	for t0 > now() {
		runtime.Gosched()
	}
	turns[0] <- 0
	wg.Wait()
}

// cycle is one workload phase and one probe phase of one slot.
func (r *runner) cycle(slot, c int, t0 int64, hs [2]*hist) {
	lat, unused := hs[0], hs[1]
	rec := &r.cycles[c]
	every, burst, tr := r.in.every(), rec.burst, (*slotTrace)(nil)
	if rec.traced {
		every, tr = 1, &r.traces[slot]
	}
	phaseEnd := t0 + int64(c)*int64(r.cfg.phase+r.cfg.probe) + int64(r.cfg.phase)

	if slot == 0 {
		r.slot0Edge(rec, false)
	}
	n, a, b := runPhase(phaseEnd, every, burst, slot, r.in.fast, r.in.timed, lat, tr)
	if slot == 0 {
		r.slot0Edge(rec, true)
	}
	pn, pa, pb := runPhase(phaseEnd+int64(r.cfg.probe), every, burst, slot, r.in.probeFast, r.in.probeTimed, unused, nil)

	r.mu.Lock()
	rec.ops += n
	rec.rate += float64(n) / (float64(b-a) / 1e9)
	rec.probeRate += float64(pn) / (float64(pb-pa) / 1e9)
	rec.lat.merge(lat)
	r.mu.Unlock()
	for _, h := range hs {
		h.reset()
	}
}

func schedLatencies() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s[0].Value.Float64Histogram()
}

// schedP99US is the 99th percentile, in µs, of the goroutine scheduling
// latencies recorded between two reads.
func schedP99US(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if total > 0 && float64(cum) >= 0.99*float64(total) {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 0) {
				return hi * 1e6
			}
			return b.Buckets[i] * 1e6
		}
	}
	return 0
}

// moreSetups repeats set-up beside the instance that will be measured, for
// setup_s's median: each repetition builds everything, initialises every
// key, dials every session, runs the fixed-count warm-up and tears it all
// down again. A 10 ms set-up is repeated until a second is spent on them
// (25 at most): its median must repeat within the bound too.
func moreSetups(p *plan, cfg config, setupS []float64) ([]float64, error) {
	var spent float64
	for _, s := range setupS {
		spent += s
	}
	for len(setupS) < cfg.setups || (spent < cfg.setupFor.Seconds() && len(setupS) < maxSetups) {
		t := now()
		in, err := build(p, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(setupS)+1, err)
		}
		setupS = append(setupS, float64(now()-t)/1e9)
		spent += setupS[len(setupS)-1]
		in.close()
	}
	return setupS, nil
}

// run builds the workload, builds it several times more for set-up's
// median, measures the first one's cycles, checks its outputs and, in a
// traced run, climbs the ladder.
func run(cfg config) (*result, error) {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	p, err := newPlan(cfg.workload, cfg.seed, nproc)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.workload, Trace: cfg.trace, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
	res.Env = env{
		Commit: commit(), GoVersion: runtime.Version(), NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Cycles: cfg.cycles, PhaseMS: cfg.phase.Seconds() * 1e3, ProbeMS: cfg.probe.Seconds() * 1e3,
		PlanHash: p.hash, TimerNS: timerOverhead(10_000),
	}

	// The first set-up builds the instance that is measured, in the heap of
	// a fresh process; the repetitions for set-up's median are built and torn
	// down beside it before the cycles start (moreSetups). Measuring the
	// last repetition instead measured an instance laid into the holes the
	// torn-down ones had left, in an order that followed the collector's
	// timing: whole runs of inproc_spread at half speed, decided before the
	// first cycle (README, "The measured instance is the first").
	//
	// The live heap is read after this first set-up: after a fixed amount of
	// work, because what a time-bounded run leaves behind depends on how
	// fast it ran, and in a process nothing was torn down in yet, because
	// a closed server's timers stay live for seconds. It is the whole heap,
	// the benchmark's own ≈100 KB of plan and probe included: they are
	// the same on both sides of any comparison, and they keep the few KB
	// by which inproc_rw's adaptive locks differ from run to run (reader
	// stripes inflated or not as warm-up ends) from being a fifth of the
	// number.
	t := now()
	in, err := build(p, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.close()
	setupS := []float64{float64(now()-t) / 1e9}
	runtime.GC()
	runtime.GC()
	liveKB := float64(heapAlloc()) / 1024
	if setupS, err = moreSetups(p, cfg, setupS); err != nil {
		return nil, err
	}
	res.Env.Setups = len(setupS)
	// In process (a timed op is not every op) latency samples are bursts.
	burst := 0
	if in.every() > 1 {
		burst = inprocBurst
	}
	res.Env.TimedOpPeriod, res.Env.TimedBurst = in.every(), burst

	r := &runner{cfg: cfg, in: in, cycles: make([]cycleRec, cfg.cycles)}
	for c := range r.cycles {
		// A traced run alternates untraced and traced cycles, so the
		// overhead it reports compares neighbours in time.
		r.cycles[c] = cycleRec{lat: newHist(), traced: cfg.trace && c%2 == 1}
		if !r.cycles[c].traced {
			r.cycles[c].burst = burst
		}
	}
	if cfg.trace {
		r.traces = make([]slotTrace, p.slots)
		for s := range r.traces {
			r.traces[s].recs = make([]stamps, 0, cfg.spanOps/p.slots)
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sched0 := schedLatencies()
	t0 := now() + int64(2*time.Millisecond)
	var wg sync.WaitGroup
	for s := 0; s < p.slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r.slotLoop(s, t0)
		}(s)
	}
	wg.Wait()
	sched1 := schedLatencies()
	runtime.ReadMemStats(&ms1)

	res.Errors = in.check()
	res.Attempted, res.Failed = in.ops()
	res.Correct = len(res.Errors) == 0 && res.Failed == 0

	// Every rate and latency is a median over cycles, never total ÷
	// elapsed, and each cycle's value is first brought to the reference
	// machine's speed by the probe phase that follows it: a cycle whose
	// probe ran 10 % slow has its rate raised and its times cut by 10 %.
	// Unscaled, ten runs of wire_spread spread ops_per_s by 20 % and
	// lat_p50_us by 18 % (quartiles ÷ median) when the host is busy, while
	// their cost relative to the probe repeats within 3 %; the benchmark
	// contract refuses a metric whose spread exceeds its bound, and no bound
	// may exceed 25 %. The unscaled medians stay beside them as raw.*
	// per-layer metrics. A traced run's traced cycles only feed
	// trace_overhead_share.
	ref := refProbePerS[cfg.workload] * float64(p.workers)
	type series struct{ rate, p50, p95 []float64 }
	var norm, raw series
	var rel, cpu, p99, util, tracedRate, probeRate, allocs, allocB []float64
	var latMax float64
	for _, c := range r.cycles {
		perOp := func(q float64) float64 { return c.lat.quantile(q) / float64(max(c.burst, 1)) / 1e3 }
		out := cycleOut{
			Traced: c.traced, OpsPerS: c.rate, ProbePerS: c.probeRate,
			P50US: perOp(0.50), P95US: perOp(0.95), CPUUSOp: float64(c.cpuNS) / 1e3 / float64(c.ops),
		}
		res.Cycles = append(res.Cycles, out)
		if c.traced {
			tracedRate = append(tracedRate, c.rate)
			continue
		}
		speed := c.probeRate / ref // this cycle's machine against the reference
		raw.rate, norm.rate = append(raw.rate, c.rate), append(norm.rate, c.rate/speed)
		raw.p50, norm.p50 = append(raw.p50, out.P50US), append(norm.p50, out.P50US*speed)
		raw.p95, norm.p95 = append(raw.p95, out.P95US), append(norm.p95, out.P95US*speed)
		cpu = append(cpu, out.CPUUSOp)
		probeRate = append(probeRate, c.probeRate)
		rel = append(rel, c.probeRate/c.rate)
		p99 = append(p99, perOp(0.99))
		latMax = max(latMax, float64(c.lat.max)/float64(max(c.burst, 1))/1e3)
		util = append(util, float64(c.cpuNS)/float64(c.wallNS)/float64(res.Env.GOMAXPROCS))
		allocs = append(allocs, float64(c.mallocs)/float64(c.ops))
		allocB = append(allocB, float64(c.mallocMem)/float64(c.ops))
	}
	e := res.EndToEnd
	e["setup_s"] = median(setupS)
	e["ops_per_s"] = median(norm.rate)
	e["rel_cost_x"] = median(rel)
	e["lat_p50_us"] = median(norm.p50)
	e["lat_p95_us"] = median(norm.p95)
	e["live_heap_kb"] = liveKB

	l := res.PerLayer
	for _, m := range perLayer {
		l[m.Name] = 0
	}
	l["raw.ops_per_s"] = median(raw.rate)
	l["raw.lat_p50_us"] = median(raw.p50)
	l["raw.lat_p95_us"] = median(raw.p95)
	l["cpu_us_per_op"] = median(cpu)
	l["probe_ns"] = 1e9 * float64(p.slots) / median(probeRate)
	l["probe_iqr_share"] = iqrShare(probeRate)
	l["cycle_iqr_share"] = iqrShare(raw.rate)
	l["lat_p99_us"] = median(p99)
	l["lat_max_us"] = latMax
	l["cpu_util"] = median(util)
	l["gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	l["gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	l["sched_lat_p99_us"] = schedP99US(sched0, sched1)
	l["goroutines_max"] = float64(r.goroutinesMax)
	in.layer(l)
	if cfg.trace {
		l["allocs_per_op"] = median(allocs)
		l["alloc_bytes_per_op"] = median(allocB)
		l["trace_overhead_share"] = 1 - median(tracedRate)/median(raw.rate)
		if err := r.spans(res); err != nil {
			return nil, err
		}
		if err := ladder(cfg, p, l); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	return res, nil
}
