package telemetry

// The interval sampler: the in-process analogue of watching /proc/lock_stat
// in a loop. A Sampler goroutine snapshots the registry every Interval,
// diffs against the previous snapshot, and keeps a short ring of derived
// Points — each one "what the lock population did in the last interval",
// with counters turned into rates. Consumers (glsstat -top, the upcoming
// glsd admin surface) read Latest or Series; they never touch the registry
// themselves, so one sampler serves any number of viewers at one
// snapshot-per-interval of cost.

import (
	"sync"
	"time"
)

// SamplerOptions configures a Sampler.
type SamplerOptions struct {
	// Interval is the sampling cadence (default 1s, minimum 10ms — below
	// that the diff cost starts competing with what it measures).
	Interval time.Duration
	// TopK limits each Point to the K most contended locks (0 = all). The
	// interval diff is already sorted most-contended first.
	TopK int
	// Depth is how many Points the series retains (default 60 — one minute
	// at the default cadence).
	Depth int
}

// LockRate is one lock's interval activity as rates — the row a live view
// renders.
type LockRate struct {
	Key   uint64 `json:"key"`
	Label string `json:"label,omitempty"`
	Kind  string `json:"kind"`
	Mode  string `json:"mode,omitempty"`

	// AcqPerSec and RAcqPerSec are acquisitions per second over the
	// interval, writer and reader side.
	AcqPerSec  float64 `json:"acq_per_sec"`
	RAcqPerSec float64 `json:"r_acq_per_sec,omitempty"`
	// ContentionPct is the percentage of the interval's acquisitions
	// (both sides) that found the lock held.
	ContentionPct float64 `json:"contention_pct"`
	// DrainNsPerSec is sampled writer-drain nanoseconds accumulated per
	// second of interval — "how much writer time readers cost right now".
	DrainNsPerSec float64 `json:"drain_ns_per_sec,omitempty"`
	// Transitions is the number of mode/family changes in the interval.
	Transitions uint64 `json:"transitions,omitempty"`

	AvgWait time.Duration `json:"avg_wait_ns"`
	P95Wait time.Duration `json:"p95_wait_ns,omitempty"`
	Present int64         `json:"present"`
}

// Point is one sampling interval: the raw diff plus the derived rates.
type Point struct {
	Time    time.Time     `json:"time"`
	Elapsed time.Duration `json:"elapsed_ns"`

	// Interval is the full snapshot diff for the interval, for consumers
	// that want more than the derived rates.
	Interval *Snapshot `json:"-"`

	// Aggregate rates over every live lock in the interval.
	AcqPerSec     float64 `json:"acq_per_sec"`
	ContentionPct float64 `json:"contention_pct"`
	DrainNsPerSec float64 `json:"drain_ns_per_sec,omitempty"`

	// Top holds the TopK most contended locks' rates.
	Top []LockRate `json:"top"`
}

// DerivePoint turns an interval diff into a Point: counters divided by the
// interval's length, percentiles read from the interval histograms. Exposed
// so remote viewers (glsstat polling a JSON endpoint) derive the same rates
// from their own diffs as the in-process Sampler.
func DerivePoint(diff *Snapshot, at time.Time, elapsed time.Duration, topK int) Point {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1
	}
	p := Point{Time: at, Elapsed: elapsed, Interval: diff}
	var acq, racq, cont, rcont, drain uint64
	for i := range diff.Locks {
		l := &diff.Locks[i]
		acq += l.Acquisitions
		racq += l.RAcquisitions
		cont += l.Contended
		rcont += l.RContended
		drain += l.WDrainNanos
		if topK > 0 && len(p.Top) >= topK {
			continue
		}
		r := LockRate{
			Key: l.Key, Label: l.Label, Kind: l.Kind, Mode: l.Mode,
			AcqPerSec:     float64(l.Acquisitions) / secs,
			RAcqPerSec:    float64(l.RAcquisitions) / secs,
			DrainNsPerSec: float64(l.WDrainNanos) / secs,
			Transitions:   l.TransitionCount(),
			AvgWait:       l.AvgWait(),
			P95Wait:       l.WaitPercentile(95),
			Present:       l.Present + l.RPresent,
		}
		if tot := l.Acquisitions + l.RAcquisitions; tot > 0 {
			r.ContentionPct = 100 * float64(l.Contended+l.RContended) / float64(tot)
		}
		p.Top = append(p.Top, r)
	}
	p.AcqPerSec = float64(acq+racq) / secs
	p.DrainNsPerSec = float64(drain) / secs
	if acq+racq > 0 {
		p.ContentionPct = 100 * float64(cont+rcont) / float64(acq+racq)
	}
	return p
}

// Sampler periodically diffs a registry into a bounded time series of
// Points. Create with NewSampler, then Start; Stop tears the goroutine
// down. All methods are safe for concurrent use.
type Sampler struct {
	reg      *Registry
	interval time.Duration
	topK     int
	depth    int

	mu     sync.Mutex
	prev   *Snapshot
	prevAt time.Time
	series []Point // ring, oldest first after trimming
	stop   chan struct{}
	done   chan struct{}
}

// NewSampler returns a sampler over reg, primed with a baseline snapshot:
// the first Sample (manual or ticked) reports activity since construction.
// It does not start the ticker goroutine; call Start for that.
func NewSampler(reg *Registry, opts SamplerOptions) *Sampler {
	iv := opts.Interval
	if iv == 0 {
		iv = time.Second
	}
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	depth := opts.Depth
	if depth <= 0 {
		depth = 60
	}
	return &Sampler{
		reg: reg, interval: iv, topK: opts.TopK, depth: depth,
		prev: reg.Snapshot(), prevAt: time.Now(),
	}
}

// Start launches the sampling goroutine. Starting a started sampler is a
// no-op.
func (s *Sampler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.run(s.stop, s.done)
}

// Stop halts sampling and waits for the goroutine to exit. The collected
// series stays readable. Stopping a stopped sampler is a no-op.
func (s *Sampler) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (s *Sampler) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.Sample()
		}
	}
}

// Sample takes one snapshot-and-diff immediately, appending the derived
// Point to the series and returning it. The ticker goroutine calls this on
// its cadence; tests and pull-based consumers may call it directly.
func (s *Sampler) Sample() Point {
	snap := s.reg.Snapshot()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	elapsed := now.Sub(s.prevAt)
	diff := snap.Diff(s.prev)
	s.prev, s.prevAt = snap, now
	p := DerivePoint(diff, now, elapsed, s.topK)
	s.series = append(s.series, p)
	if over := len(s.series) - s.depth; over > 0 {
		s.series = append(s.series[:0], s.series[over:]...)
	}
	return p
}

// Latest returns the most recent Point, if any interval has completed.
func (s *Sampler) Latest() (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.series) == 0 {
		return Point{}, false
	}
	return s.series[len(s.series)-1], true
}

// Series returns a copy of the retained points, oldest first.
func (s *Sampler) Series() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Point(nil), s.series...)
}
