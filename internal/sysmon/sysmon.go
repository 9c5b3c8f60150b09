// Package sysmon detects multiprogramming — more runnable tasks than
// hardware contexts — for GLK's mutex mode.
//
// The paper spawns one background thread on the first GLK invocation, shared
// by every GLK lock in the process, that wakes ~every 100 µs and "checks
// whether there is oversubscription of threads to hardware contexts at the
// system level" (§3). It also damps flapping: "we detect and avoid
// consecutive transitions from mutex to spinlocks, by exponentially
// increasing the number of consecutive rounds with no oversubscription
// required to switch away from mutex".
//
// Go substitution (see DESIGN.md §5): "hardware contexts" is GOMAXPROCS and
// "running tasks" is measured, not guessed from how late the monitor's own
// timer fires:
//
//   - the runtime's scheduling-latency histogram (runtime/metrics
//     "/sched/latencies:seconds") is summed over a window and divided by
//     the window's wall time — by Little's law the mean number of goroutines
//     that were runnable without a P — and two windows in a row must agree
//     before the verdict changes;
//   - Hint/AddHint: benchmarks and applications that know their CPU-bound
//     goroutine census report it directly, exactly as the paper's monitor
//     reads the OS run queue.
package sysmon

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Options.
const (
	// DefaultInterval is the monitor's wake-up period. The paper uses
	// ~100 µs; Go timers on a loaded single-P runtime cannot hold that
	// cadence reliably, so the default is 1 ms (adaptation periods are
	// thousands of critical sections, so the flag is still fresh).
	DefaultInterval = time.Millisecond

	// window is the wall time one load estimate covers. Scheduling events
	// are sparse exactly when it matters — CPU-bound goroutines change
	// hands once per 10 ms time slice and the runtime records one
	// transition in eight — so a verdict per tick would mostly judge the
	// monitor's own wake-up; a hundred ticks see the others.
	window = 100 * time.Millisecond

	// waitingThreshold is the estimate above which a window votes
	// "oversubscribed". The histogram holds one transition in eight, so the
	// estimate is ⅛ of the goroutines truly waiting for a P: (N−P)/8 for N
	// CPU-bound goroutines on P Ps. 0.08 sits under one extra goroutine
	// (0.125; 0.09 when its 10 ms waits are sampled once per window), and
	// over what parking and waking leaves behind on a box that is not
	// oversubscribed (DESIGN.md §5 has the measurements).
	waitingThreshold = 0.08

	// schedLatencyMetric is the runtime/metrics histogram of the time
	// goroutines spend runnable before running.
	schedLatencyMetric = "/sched/latencies:seconds"
)

// Options configures a Monitor. The zero value selects every default.
type Options struct {
	// Interval between load samples. 0 means DefaultInterval.
	Interval time.Duration
	// DisableProbes turns off the scheduling-latency probe, leaving only
	// explicit hints: for runs whose mode transitions must replay exactly.
	DisableProbes bool
}

// Monitor is the background load watcher shared by GLK locks.
//
// A Monitor must be created with New and started with Start; Stop waits for
// the background goroutine to exit. Multiprogrammed is safe to call from any
// goroutine at any time.
type Monitor struct {
	opts Options

	multiprog atomic.Bool
	hint      atomic.Int64 // externally reported CPU-bound goroutines

	// Anti-flapping state, owned by the monitor goroutine.
	calmRounds    uint64 // consecutive rounds without oversubscription
	requiredCalm  uint64 // rounds needed before clearing the flag
	everMultiprog bool   // whether the flag has been set at least once

	// Scheduling-latency probe state, owned by the monitor goroutine.
	prev           []uint64 // the histogram's bucket counts at windowStart
	windowStart    time.Time
	lastVote, over bool // the last window's vote; what two in a row agreed on

	mu      sync.Mutex // guards start/stop transitions
	stop    chan struct{}
	stopped chan struct{}
	running bool

	// rounds counts monitor iterations; tests use it to await progress.
	rounds atomic.Uint64
}

// minRequiredCalm is the initial number of calm rounds needed to clear the
// multiprogramming flag; each relapse doubles the requirement (paper §3).
const minRequiredCalm = 4

// maxRequiredCalm caps the exponential growth so a long-running process can
// still leave mutex mode within a bounded time.
const maxRequiredCalm = 1 << 12

// New returns a stopped monitor with the given options.
func New(opts Options) *Monitor {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	return &Monitor{
		opts:         opts,
		requiredCalm: minRequiredCalm,
	}
}

// Start launches the background sampling goroutine. Starting a running
// monitor is a no-op.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return
	}
	m.stop = make(chan struct{})
	m.stopped = make(chan struct{})
	m.running = true
	go m.run(m.stop, m.stopped)
}

// Stop terminates the background goroutine and waits for it. Stopping a
// stopped monitor is a no-op. The multiprogramming flag freezes at its last
// value.
func (m *Monitor) Stop() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	stop, stopped := m.stop, m.stopped
	m.running = false
	m.mu.Unlock()
	close(stop)
	<-stopped
}

// Multiprogrammed reports whether the system currently has more runnable
// tasks than hardware contexts. GLK locks consult this at adaptation points.
func (m *Monitor) Multiprogrammed() bool { return m.multiprog.Load() }

// SetHint declares the number of CPU-bound goroutines the caller knows
// about (for example, benchmark worker counts). The monitor compares the
// hint against GOMAXPROCS in addition to its probes. Negative values are
// treated as zero.
func (m *Monitor) SetHint(runnable int) {
	if runnable < 0 {
		runnable = 0
	}
	m.hint.Store(int64(runnable))
}

// AddHint adjusts the hint by delta; workers call AddHint(1)/AddHint(-1)
// around CPU-bound phases.
func (m *Monitor) AddHint(delta int) {
	if v := m.hint.Add(int64(delta)); v < 0 {
		m.hint.Store(0)
	}
}

// Hint returns the current externally-reported runnable count.
func (m *Monitor) Hint() int { return int(m.hint.Load()) }

// Rounds reports how many sampling iterations have completed.
func (m *Monitor) Rounds() uint64 { return m.rounds.Load() }

// run is the monitor loop.
func (m *Monitor) run(stop <-chan struct{}, stopped chan<- struct{}) {
	defer close(stopped)
	ticker := time.NewTicker(m.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			m.update(m.sample(time.Now()))
			m.rounds.Add(1)
		}
	}
}

// sample runs the probes once and reports whether any signals
// oversubscription.
func (m *Monitor) sample(now time.Time) bool {
	// Probe 0: explicit census.
	if int(m.hint.Load()) > runtime.GOMAXPROCS(0) {
		return true
	}
	if m.opts.DisableProbes {
		return false
	}
	// Probe 1: goroutines waiting for a P, a window at a time. Between
	// window edges the verdict stands.
	if now.Sub(m.windowStart) >= window {
		m.closeWindow(now, readSchedLatencies())
	}
	return m.over
}

// closeWindow turns the histogram's growth since the previous edge into this
// window's vote — Σ scheduling latency ÷ wall time, the mean number of
// goroutines that waited for a P (×⅛, see waitingThreshold) — and changes
// the verdict when two consecutive windows vote alike. One window alone
// decides nothing, either way: the monitor is itself a goroutine that
// sometimes waits a time slice for a P (its wake-ups are in the histogram,
// and which of them cannot be told), and CPU-bound goroutines are recorded
// so rarely that a window of real oversubscription can come up empty.
func (m *Monitor) closeWindow(now time.Time, hist *metrics.Float64Histogram) {
	var waited float64
	if m.prev != nil {
		for i, c := range hist.Counts {
			waited += float64(c-m.prev[i]) * bucketMid(hist.Buckets, i)
		}
	}
	vote := waited/now.Sub(m.windowStart).Seconds() > waitingThreshold
	if vote == m.lastVote {
		m.over = vote
	}
	m.lastVote, m.prev, m.windowStart = vote, hist.Counts, now
}

// update applies one probe verdict to the flag with the paper's
// anti-flapping policy.
func (m *Monitor) update(over bool) {
	if over {
		if !m.multiprog.Load() {
			if m.everMultiprog && m.calmRounds < m.requiredCalm*4 {
				// Relapsed shortly after clearing: demand exponentially more
				// calm next time.
				if m.requiredCalm < maxRequiredCalm {
					m.requiredCalm *= 2
				}
			}
			m.multiprog.Store(true)
			m.everMultiprog = true
		}
		m.calmRounds = 0
		return
	}
	m.calmRounds++
	if m.multiprog.Load() && m.calmRounds >= m.requiredCalm {
		m.multiprog.Store(false)
		m.calmRounds = 0
	}
}

// readSchedLatencies reads the runtime's scheduling-latency histogram
// (exported since Go 1.17; go.mod asks for more).
func readSchedLatencies() *metrics.Float64Histogram {
	samples := []metrics.Sample{{Name: schedLatencyMetric}}
	metrics.Read(samples)
	return samples[0].Value.Float64Histogram()
}

// bucketMid returns a representative latency (seconds) for histogram bucket
// i, clamping the open-ended boundary buckets.
func bucketMid(buckets []float64, i int) float64 {
	lo, hi := buckets[i], buckets[i+1]
	const clamp = 0.1 // 100ms stands in for +Inf
	if hi > clamp {
		hi = clamp
	}
	if lo < 0 {
		lo = 0
	}
	return (lo + hi) / 2
}

// Shared returns the process-wide monitor, starting it on first use — the
// paper's "on the first GLK invocation, a background thread is spawned...
// shared across all GLK objects in a system". StopShared exists for tests
// and orderly shutdown.
func Shared() *Monitor {
	if m := shared.Load(); m != nil {
		return m // every adaptation boundary of every default lock comes through here
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	m := shared.Load()
	if m == nil {
		m = New(Options{})
		m.Start()
		shared.Store(m)
	}
	return m
}

// StopShared stops and discards the process-wide monitor, if any. The next
// Shared call creates a fresh one.
func StopShared() {
	sharedMu.Lock()
	s := shared.Swap(nil)
	sharedMu.Unlock()
	if s != nil {
		s.Stop()
	}
}

var (
	sharedMu sync.Mutex // first use and StopShared only
	shared   atomic.Pointer[Monitor]
)
