package telemetry

// Interval rates: the analogue of watching /proc/lock_stat in a loop. A
// viewer snapshots the registry on its own cadence, diffs against its
// previous snapshot, and derives a Point — "what the lock population did in
// the last interval", with counters turned into rates (glsstat -top does
// exactly this, locally or over a JSON endpoint).

import "time"

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
// interval's length, percentiles read from the interval histograms. topK
// limits Top to the K most contended locks (0 = all); the diff is already
// sorted most-contended first.
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
