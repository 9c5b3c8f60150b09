package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// LockSnapshot is the frozen telemetry of one lock at Snapshot time. All
// counters are totals since registration (or since the previous snapshot,
// in a Diff).
type LockSnapshot struct {
	Key uint64 `json:"key"`
	// Gen identifies the lock's registration incarnation: a key freed and
	// re-created gets a new Gen, which is how Diff avoids subtracting
	// counters across unrelated lives of one key.
	Gen   uint64 `json:"gen,omitempty"`
	Label string `json:"label,omitempty"`
	Kind  string `json:"kind"`
	Mode  string `json:"mode,omitempty"`

	Arrivals     uint64 `json:"arrivals"`
	Acquisitions uint64 `json:"acquisitions"`
	Contended    uint64 `json:"contended"`
	TryFails     uint64 `json:"trylock_failures"`

	// Timeouts and Cancels split the aborted acquisitions (waiters whose
	// deadline or context fired mid-wait) by cause. Every abort is also one
	// TryFails — the failed lane counts each non-acquisition exactly once —
	// so these are a breakdown, not an addition: TryFails ≥ Timeouts +
	// Cancels, with the remainder being genuine TryLock failures. Aborts
	// from both sides of an RW lock land here (the split is per lock).
	Timeouts uint64 `json:"timeouts,omitempty"`
	Cancels  uint64 `json:"cancels,omitempty"`

	Samples    uint64 `json:"samples"`
	WaitNanos  uint64 `json:"wait_ns_total"`
	HoldNanos  uint64 `json:"hold_ns_total"`
	QueueTotal uint64 `json:"queue_total"`

	Present     int64        `json:"present"`
	Transitions []Transition `json:"transitions,omitempty"`

	// Read-side counters, present only for reader-writer locks (IsRW). The
	// exclusive counters above then describe the lock's writer side: an RW
	// lock's Lock/TryLock are writer acquisitions.
	IsRW          bool   `json:"rw,omitempty"`
	RArrivals     uint64 `json:"r_arrivals,omitempty"`
	RAcquisitions uint64 `json:"r_acquisitions,omitempty"`
	RContended    uint64 `json:"r_contended,omitempty"`
	RTryFails     uint64 `json:"r_trylock_failures,omitempty"`
	RSamples      uint64 `json:"r_samples,omitempty"`
	RWaitNanos    uint64 `json:"r_wait_ns_total,omitempty"`
	RQueueTotal   uint64 `json:"r_queue_total,omitempty"`
	// WDrainNanos is writer time spent blocked by readers (sampled on the
	// writer's timed acquisitions) — the price of the scalable read side.
	WDrainNanos uint64 `json:"w_drain_ns_total,omitempty"`
	// RWaitPhases is the total number of writer phases that bypassed
	// blocked readers before admission, and RStarved the number of readers
	// whose bypass count crossed the starvation bound — the glsfair
	// fairness lanes (DESIGN.md §10). Large RWaitPhases with zero RStarved
	// reads as "writers stream, readers keep up"; nonzero RStarved means
	// the lock asked for (or, frozen, needed) phase-fair admission.
	RWaitPhases uint64 `json:"r_wait_phases,omitempty"`
	RStarved    uint64 `json:"r_starved,omitempty"`
	RPresent    int64  `json:"r_present,omitempty"`

	// WaitHist, HoldHist, and RWaitHist are the sampled latency histograms:
	// bucket i counts timed samples whose duration fell in [2^(i-1), 2^i)
	// nanoseconds, trailing zero buckets trimmed (see hist.go). They feed
	// the percentile accessors (WaitPercentile and friends); the mean
	// accessors above use the exact nanosecond sums instead.
	WaitHist  []uint64 `json:"wait_hist,omitempty"`
	HoldHist  []uint64 `json:"hold_hist,omitempty"`
	RWaitHist []uint64 `json:"r_wait_hist,omitempty"`
}

// Name returns the label if set, else the hex key.
func (l *LockSnapshot) Name() string {
	if l.Label != "" {
		return l.Label
	}
	return fmt.Sprintf("%#x", l.Key)
}

// ContentionRatio is the fraction of acquisitions that found the lock held.
func (l *LockSnapshot) ContentionRatio() float64 {
	if l.Acquisitions == 0 {
		return 0
	}
	return float64(l.Contended) / float64(l.Acquisitions)
}

// AvgWait is the mean acquisition latency over the timed samples.
func (l *LockSnapshot) AvgWait() time.Duration {
	if l.Samples == 0 {
		return 0
	}
	return time.Duration(l.WaitNanos / l.Samples)
}

// AvgHold is the mean critical-section duration over the timed samples.
func (l *LockSnapshot) AvgHold() time.Duration {
	if l.Samples == 0 {
		return 0
	}
	return time.Duration(l.HoldNanos / l.Samples)
}

// AvgQueue is the mean number of goroutines at the lock (holder included)
// sampled at timed acquisitions; an uncontended lock reads ~1.
func (l *LockSnapshot) AvgQueue() float64 {
	if l.Samples == 0 {
		return 0
	}
	return float64(l.QueueTotal) / float64(l.Samples)
}

// RContentionRatio is the fraction of read acquisitions that arrived while
// a writer was active.
func (l *LockSnapshot) RContentionRatio() float64 {
	if l.RAcquisitions == 0 {
		return 0
	}
	return float64(l.RContended) / float64(l.RAcquisitions)
}

// AvgRWait is the mean read-acquisition latency over the timed samples.
func (l *LockSnapshot) AvgRWait() time.Duration {
	if l.RSamples == 0 {
		return 0
	}
	return time.Duration(l.RWaitNanos / l.RSamples)
}

// AvgRQueue is the mean number of readers at the lock sampled at timed
// read acquisitions.
func (l *LockSnapshot) AvgRQueue() float64 {
	if l.RSamples == 0 {
		return 0
	}
	return float64(l.RQueueTotal) / float64(l.RSamples)
}

// AvgWriterDrain is the mean time a writer spent blocked by readers, over
// the writer's timed samples (the same Samples denominator as AvgWait — an
// RW lock's exclusive lanes are its writer side).
func (l *LockSnapshot) AvgWriterDrain() time.Duration {
	if l.Samples == 0 {
		return 0
	}
	return time.Duration(l.WDrainNanos / l.Samples)
}

// WaitPercentile returns the p-th percentile (0 < p < 100) of the sampled
// acquisition wait latency, from the log-bucketed histogram — accurate to
// the bucket's factor-of-two width. Zero when nothing was sampled.
func (l *LockSnapshot) WaitPercentile(p float64) time.Duration {
	return histPercentile(l.WaitHist, p)
}

// HoldPercentile returns the p-th percentile of the sampled hold
// (critical-section) latency.
func (l *LockSnapshot) HoldPercentile(p float64) time.Duration {
	return histPercentile(l.HoldHist, p)
}

// RWaitPercentile returns the p-th percentile of the sampled read-side
// acquisition wait latency of an RW lock.
func (l *LockSnapshot) RWaitPercentile(p float64) time.Duration {
	return histPercentile(l.RWaitHist, p)
}

// TransitionCount is the total number of mode changes.
func (l *LockSnapshot) TransitionCount() uint64 {
	var n uint64
	for _, t := range l.Transitions {
		n += t.Count
	}
	return n
}

// RetiredSnapshot aggregates the locks unregistered before this snapshot —
// freed by the service, or folded by the idle-eviction policy
// (Options.MaxLocks) — so totals remain monotonic across both.
type RetiredSnapshot struct {
	Locks uint64 `json:"locks"`
	// Evicted counts the subset of Locks folded because they went idle
	// rather than because they were freed.
	Evicted      uint64 `json:"evicted,omitempty"`
	Arrivals     uint64 `json:"arrivals"`
	Acquisitions uint64 `json:"acquisitions"`
	Contended    uint64 `json:"contended"`
	TryFails     uint64 `json:"trylock_failures"`
	Timeouts     uint64 `json:"timeouts,omitempty"`
	Cancels      uint64 `json:"cancels,omitempty"`
	Transitions  uint64 `json:"transitions"`

	// Read-side totals of retired RW locks.
	RArrivals     uint64 `json:"r_arrivals,omitempty"`
	RAcquisitions uint64 `json:"r_acquisitions,omitempty"`
	RContended    uint64 `json:"r_contended,omitempty"`
	RTryFails     uint64 `json:"r_trylock_failures,omitempty"`
	RWaitPhases   uint64 `json:"r_wait_phases,omitempty"`
	RStarved      uint64 `json:"r_starved,omitempty"`

	// Latency histograms folded from retired locks, same bucket scheme as
	// LockSnapshot's.
	WaitHist  []uint64 `json:"wait_hist,omitempty"`
	HoldHist  []uint64 `json:"hold_hist,omitempty"`
	RWaitHist []uint64 `json:"r_wait_hist,omitempty"`
}

// Snapshot is a point-in-time (or, after Diff, an interval) view of a
// Registry. Locks are sorted most-contended first: by contended
// acquisitions (writer plus reader side), then arrivals (both sides), then
// key — the /proc/lock_stat convention of leading with the locks that cost
// the most.
type Snapshot struct {
	SamplePeriod uint64          `json:"sample_period"`
	Locks        []LockSnapshot  `json:"locks"`
	Retired      RetiredSnapshot `json:"retired"`
}

// Lock returns the snapshot entry for key, or nil.
func (s *Snapshot) Lock(key uint64) *LockSnapshot {
	for i := range s.Locks {
		if s.Locks[i].Key == key {
			return &s.Locks[i]
		}
	}
	return nil
}

// Diff returns the per-lock counter deltas from prev to s — the activity of
// the interval between the two snapshots. Locks absent from prev (created
// in the interval) keep their full counts; locks absent from s (freed in
// the interval) are dropped, and the Retired delta is corrected by their
// previously-reported live counts so it too reflects interval activity
// only. Mode, label, and present are taken from s (they are states, not
// counters). The result is sorted like any snapshot.
func (s *Snapshot) Diff(prev *Snapshot) *Snapshot {
	if prev == nil {
		return s
	}
	prevByKey := make(map[uint64]*LockSnapshot, len(prev.Locks))
	for i := range prev.Locks {
		prevByKey[prev.Locks[i].Key] = &prev.Locks[i]
	}
	out := &Snapshot{
		SamplePeriod: s.SamplePeriod,
		Locks:        make([]LockSnapshot, 0, len(s.Locks)),
		Retired: RetiredSnapshot{
			Locks:         s.Retired.Locks - prev.Retired.Locks,
			Evicted:       s.Retired.Evicted - prev.Retired.Evicted,
			Arrivals:      s.Retired.Arrivals - prev.Retired.Arrivals,
			Acquisitions:  s.Retired.Acquisitions - prev.Retired.Acquisitions,
			Contended:     s.Retired.Contended - prev.Retired.Contended,
			TryFails:      s.Retired.TryFails - prev.Retired.TryFails,
			Timeouts:      s.Retired.Timeouts - prev.Retired.Timeouts,
			Cancels:       s.Retired.Cancels - prev.Retired.Cancels,
			Transitions:   s.Retired.Transitions - prev.Retired.Transitions,
			RArrivals:     s.Retired.RArrivals - prev.Retired.RArrivals,
			RAcquisitions: s.Retired.RAcquisitions - prev.Retired.RAcquisitions,
			RContended:    s.Retired.RContended - prev.Retired.RContended,
			RTryFails:     s.Retired.RTryFails - prev.Retired.RTryFails,
			RWaitPhases:   s.Retired.RWaitPhases - prev.Retired.RWaitPhases,
			RStarved:      s.Retired.RStarved - prev.Retired.RStarved,
			WaitHist:      subBuckets(s.Retired.WaitHist, prev.Retired.WaitHist),
			HoldHist:      subBuckets(s.Retired.HoldHist, prev.Retired.HoldHist),
			RWaitHist:     subBuckets(s.Retired.RWaitHist, prev.Retired.RWaitHist),
		},
	}
	curGen := make(map[uint64]uint64, len(s.Locks))
	for i := range s.Locks {
		curGen[s.Locks[i].Key] = s.Locks[i].Gen
	}
	for _, cur := range s.Locks {
		// A Gen mismatch means the key was freed and re-created in the
		// interval: the previous incarnation's counters belong to Retired,
		// not to this lock, so the new life keeps its full counts.
		if p := prevByKey[cur.Key]; p != nil && p.Gen == cur.Gen {
			// sub0 throughout: the raw slots are monotonic, but both
			// snapshots were racy reads, and the derived Acquisitions is
			// re-derived from the diffed raw fields so its zero-clamp in
			// snapshot() cannot underflow here.
			cur.Arrivals = sub0(cur.Arrivals, p.Arrivals)
			cur.Contended = sub0(cur.Contended, p.Contended)
			cur.TryFails = sub0(cur.TryFails, p.TryFails)
			cur.Timeouts = sub0(cur.Timeouts, p.Timeouts)
			cur.Cancels = sub0(cur.Cancels, p.Cancels)
			cur.Acquisitions = sub0(cur.Arrivals, cur.TryFails)
			cur.Samples = sub0(cur.Samples, p.Samples)
			cur.WaitNanos = sub0(cur.WaitNanos, p.WaitNanos)
			cur.HoldNanos = sub0(cur.HoldNanos, p.HoldNanos)
			cur.QueueTotal = sub0(cur.QueueTotal, p.QueueTotal)
			cur.RArrivals = sub0(cur.RArrivals, p.RArrivals)
			cur.RContended = sub0(cur.RContended, p.RContended)
			cur.RTryFails = sub0(cur.RTryFails, p.RTryFails)
			cur.RAcquisitions = sub0(cur.RArrivals, cur.RTryFails)
			cur.RSamples = sub0(cur.RSamples, p.RSamples)
			cur.RWaitNanos = sub0(cur.RWaitNanos, p.RWaitNanos)
			cur.RQueueTotal = sub0(cur.RQueueTotal, p.RQueueTotal)
			cur.WDrainNanos = sub0(cur.WDrainNanos, p.WDrainNanos)
			cur.RWaitPhases = sub0(cur.RWaitPhases, p.RWaitPhases)
			cur.RStarved = sub0(cur.RStarved, p.RStarved)
			cur.WaitHist = subBuckets(cur.WaitHist, p.WaitHist)
			cur.HoldHist = subBuckets(cur.HoldHist, p.HoldHist)
			cur.RWaitHist = subBuckets(cur.RWaitHist, p.RWaitHist)
			cur.Transitions = diffTransitions(cur.Transitions, p.Transitions)
		}
		out.Locks = append(out.Locks, cur)
	}
	// A lock freed during the interval folded its *lifetime* totals into
	// s.Retired, but everything up to prev was already reported live in
	// prev — subtract it so the retired delta is interval activity, not a
	// double count. (sub0 guards the racy-read edge where prev's live
	// reading exceeded the quiescent fold.)
	for i := range prev.Locks {
		p := &prev.Locks[i]
		if g, ok := curGen[p.Key]; !ok || g != p.Gen {
			out.Retired.Arrivals = sub0(out.Retired.Arrivals, p.Arrivals)
			out.Retired.Acquisitions = sub0(out.Retired.Acquisitions, p.Acquisitions)
			out.Retired.Contended = sub0(out.Retired.Contended, p.Contended)
			out.Retired.TryFails = sub0(out.Retired.TryFails, p.TryFails)
			out.Retired.Timeouts = sub0(out.Retired.Timeouts, p.Timeouts)
			out.Retired.Cancels = sub0(out.Retired.Cancels, p.Cancels)
			out.Retired.RArrivals = sub0(out.Retired.RArrivals, p.RArrivals)
			out.Retired.RAcquisitions = sub0(out.Retired.RAcquisitions, p.RAcquisitions)
			out.Retired.RContended = sub0(out.Retired.RContended, p.RContended)
			out.Retired.RTryFails = sub0(out.Retired.RTryFails, p.RTryFails)
			out.Retired.Transitions = sub0(out.Retired.Transitions, p.TransitionCount())
			out.Retired.WaitHist = subBuckets(out.Retired.WaitHist, p.WaitHist)
			out.Retired.HoldHist = subBuckets(out.Retired.HoldHist, p.HoldHist)
			out.Retired.RWaitHist = subBuckets(out.Retired.RWaitHist, p.RWaitHist)
		}
	}
	out.sort()
	return out
}

// diffTransitions subtracts prev's per-edge counts, dropping edges that saw
// no activity in the interval.
func diffTransitions(cur, prev []Transition) []Transition {
	if len(prev) == 0 {
		return cur
	}
	prevCount := make(map[[2]string]uint64, len(prev))
	for _, t := range prev {
		prevCount[[2]string{t.From, t.To}] = t.Count
	}
	var out []Transition
	for _, t := range cur {
		t.Count -= prevCount[[2]string{t.From, t.To}]
		if t.Count > 0 {
			out = append(out, t)
		}
	}
	return out
}

// totals sums the live-lock counters for the report header.
func (s *Snapshot) totals() (acq, contended, transitions uint64) {
	for i := range s.Locks {
		acq += s.Locks[i].Acquisitions
		contended += s.Locks[i].Contended
		transitions += s.Locks[i].TransitionCount()
	}
	return
}

// rtotals sums the live read-side counters; all zero when no lock is RW.
func (s *Snapshot) rtotals() (racq, rcontended uint64) {
	for i := range s.Locks {
		racq += s.Locks[i].RAcquisitions
		rcontended += s.Locks[i].RContended
	}
	return
}

// aborttotals sums the live abort-cause counters; both zero when no
// deadline-carrying acquisition ever gave up.
func (s *Snapshot) aborttotals() (timeouts, cancels uint64) {
	for i := range s.Locks {
		timeouts += s.Locks[i].Timeouts
		cancels += s.Locks[i].Cancels
	}
	return
}

// WriteText writes the /proc/lock_stat-style report: a totals header, then
// one line per lock, most contended first. Latencies are the sampled means;
// "cont" is the fraction of acquisitions that found the lock held.
//
//	[glstat] locks: 2  acquisitions: 181714 (21.4% contended)  mode transitions: 3  sample period: 8
//	              key label            kind  mode         acq    cont  try-fail  avg-wait  avg-hold  avg-queue  transitions
//	              0x1 hot              glk   mutex     142850   27.2%         0   212.4µs     1.1µs       7.42  ticket→mutex ×1 (multiprogramming (avg queue 7.10))
func (s *Snapshot) WriteText(w io.Writer) error {
	acq, contended, transitions := s.totals()
	pct := 0.0
	if acq > 0 {
		pct = 100 * float64(contended) / float64(acq)
	}
	if _, err := fmt.Fprintf(w,
		"[glstat] locks: %d  acquisitions: %d (%.1f%% contended)  mode transitions: %d  sample period: %d\n",
		len(s.Locks), acq, pct, transitions, s.SamplePeriod); err != nil {
		return err
	}
	if racq, rcont := s.rtotals(); racq > 0 {
		rpct := 100 * float64(rcont) / float64(racq)
		if _, err := fmt.Fprintf(w,
			"[glstat] read side: %d acquisitions (%.1f%% behind a writer)\n", racq, rpct); err != nil {
			return err
		}
	}
	if timeouts, cancels := s.aborttotals(); timeouts+cancels > 0 {
		if _, err := fmt.Fprintf(w,
			"[glstat] aborted waits: %d deadline timeouts, %d context cancels\n", timeouts, cancels); err != nil {
			return err
		}
	}
	if s.Retired.Locks > 0 {
		if _, err := fmt.Fprintf(w, "[glstat] retired: %d locks (%d idle-evicted), %d acquisitions (%d contended), %d transitions\n",
			s.Retired.Locks, s.Retired.Evicted, s.Retired.Acquisitions, s.Retired.Contended, s.Retired.Transitions); err != nil {
			return err
		}
	}
	if len(s.Locks) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%18s %-16s %-5s %-6s %10s %7s %9s %9s %9s %10s  %s\n",
		"key", "label", "kind", "mode", "acq", "cont", "try-fail", "avg-wait", "avg-hold", "avg-queue", "transitions"); err != nil {
		return err
	}
	for i := range s.Locks {
		l := &s.Locks[i]
		trail := formatTransitions(l.Transitions)
		if l.Timeouts+l.Cancels > 0 {
			// The abort-cause split rides the free-form trailing column so
			// the fixed-width table stays stable for locks that never abort.
			trail += fmt.Sprintf("  timeouts %d  cancels %d", l.Timeouts, l.Cancels)
		}
		// Percentiles ride the trailing column too: locks that never
		// sampled (no histogram block) keep their lines short.
		if len(l.WaitHist) > 0 {
			trail += "  wait-p50/95/99 " + fmtPercentiles(l.WaitHist)
		}
		if len(l.HoldHist) > 0 {
			trail += "  hold-p50/95/99 " + fmtPercentiles(l.HoldHist)
		}
		if _, err := fmt.Fprintf(w, "%18s %-16s %-5s %-6s %10d %6.1f%% %9d %9s %9s %10.2f  %s\n",
			fmt.Sprintf("%#x", l.Key), l.Label, l.Kind, l.Mode,
			l.Acquisitions, 100*l.ContentionRatio(), l.TryFails,
			fmtDur(l.AvgWait()), fmtDur(l.AvgHold()), l.AvgQueue(),
			trail); err != nil {
			return err
		}
		if l.IsRW {
			// Read side on its own line: the columns above are the lock's
			// writer side, so the pair reads like /proc/lock_stat's
			// read/write split. The trailing cells are the glsfair fairness
			// lanes: writer drain time, writer phases that bypassed blocked
			// readers, and readers starved past the bound.
			rtrail := fmt.Sprintf("w-drain %s  bypass-phases %d  starved %d",
				fmtDur(l.AvgWriterDrain()), l.RWaitPhases, l.RStarved)
			if len(l.RWaitHist) > 0 {
				rtrail += "  r-wait-p50/95/99 " + fmtPercentiles(l.RWaitHist)
			}
			if _, err := fmt.Fprintf(w, "%18s %-16s %-5s %-6s %10d %6.1f%% %9d %9s %9s %10.2f  %s\n",
				"", "  └ read side", "", "",
				l.RAcquisitions, 100*l.RContentionRatio(), l.RTryFails,
				fmtDur(l.AvgRWait()), "-", l.AvgRQueue(),
				rtrail); err != nil {
				return err
			}
		}
	}
	return nil
}

// fmtPercentiles renders a histogram's p50/p95/p99 as one slash-joined
// cell for the trailing report column.
func fmtPercentiles(buckets []uint64) string {
	return fmt.Sprintf("%s/%s/%s",
		fmtDur(histPercentile(buckets, 50)),
		fmtDur(histPercentile(buckets, 95)),
		fmtDur(histPercentile(buckets, 99)))
}

// fmtDur renders a duration compactly for the fixed-width report.
func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	switch {
	case d < 10*time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}

// formatTransitions renders the per-edge transition counts with the latest
// reason, GLK §4.3 style.
func formatTransitions(ts []Transition) string {
	if len(ts) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(ts))
	for _, t := range ts {
		p := fmt.Sprintf("%s→%s ×%d", t.From, t.To, t.Count)
		if t.Reason != "" {
			p += fmt.Sprintf(" (%s)", t.Reason)
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, "; ")
}

// WriteJSON writes the snapshot as indented JSON — the machine-readable
// export consumed by cmd/glsstat and the telemetryhttp handler.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadJSON parses a snapshot previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("telemetry: parsing snapshot: %w", err)
	}
	return &s, nil
}
