package gls

import (
	"fmt"
	"io"
	"sort"
	"time"

	"gls/internal/cycles"
)

// Profile mode (§4.3) is a thin consumer of the telemetry subsystem: the
// per-lock accumulation that used to live here (a parallel set of entry
// counters maintained by service-level wrappers) is gone, replaced by the
// registry every instrumented lock feeds (see package telemetry and
// Options.Telemetry). ProfileStats/ProfileReport only reshape a registry
// snapshot into the paper's report.

// ProfileStat is the per-lock profile of paper §4.3.
type ProfileStat struct {
	Key          uint64
	Algorithm    string
	Acquisitions uint64
	// AvgQueue is the mean number of goroutines at the lock, sampled at
	// each timed acquisition (holder included; an uncontended lock reads
	// ~1). With the private registry Profile creates, every acquisition is
	// timed; a shared Options.Telemetry registry samples at its own period.
	AvgQueue float64
	// AvgLockLatency is the mean time spent acquiring (timed samples).
	AvgLockLatency time.Duration
	// AvgCSLatency is the mean critical-section duration (timed samples).
	AvgCSLatency time.Duration
}

// ProfileStats returns the profile of every mapped lock, most contended
// first. It returns nil unless the service was created with
// Options.Profile.
func (s *Service) ProfileStats() []ProfileStat {
	if !s.opts.Profile || s.tele == nil {
		return nil
	}
	snap := s.tele.Snapshot()
	out := make([]ProfileStat, 0, len(snap.Locks))
	for i := range snap.Locks {
		l := &snap.Locks[i]
		if l.Acquisitions == 0 {
			continue
		}
		// A shared registry (telemetry.Default()) may carry other
		// services' locks; the paper's profile is per-service, so keep
		// only keys this service currently maps (one wait-free Get each).
		if s.table.Get(l.Key) == nil {
			continue
		}
		out = append(out, ProfileStat{
			Key:            l.Key,
			Algorithm:      l.Kind,
			Acquisitions:   l.Acquisitions,
			AvgQueue:       l.AvgQueue(),
			AvgLockLatency: l.AvgWait(),
			AvgCSLatency:   l.AvgHold(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AvgQueue > out[j].AvgQueue })
	return out
}

// ProfileReport writes the §4.3 report, one line per lock, most contended
// first, e.g.:
//
//	[GLS] queue: 4.50 | l-lat: 13963 | cs-lat: 2848 @ (0x7fe6318eb4e0:mcs)
//
// Latencies are printed in CPU cycles at the calibrated nominal frequency,
// matching the paper's units. For the richer always-on view (contention
// ratios, mode transitions, exports), read the telemetry registry directly:
// Telemetry().Snapshot().WriteText.
func (s *Service) ProfileReport(w io.Writer) error {
	stats := s.ProfileStats()
	if stats == nil {
		_, err := fmt.Fprintln(w, "[GLS] profiling disabled (create the service with Options.Profile)")
		return err
	}
	for _, st := range stats {
		_, err := fmt.Fprintf(w, "[GLS] queue: %.2f | l-lat: %d | cs-lat: %d @ (%#x:%s)\n",
			st.AvgQueue,
			cycles.FromDuration(st.AvgLockLatency),
			cycles.FromDuration(st.AvgCSLatency),
			st.Key, st.Algorithm)
		if err != nil {
			return err
		}
	}
	return nil
}
