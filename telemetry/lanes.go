package telemetry

// LaneSet is a snapshot flattened into the scalar "assertion lanes" the
// glscn scenario engine (internal/scenario) checks bounds against: the
// read-side starvation counters summed over every lock, live and retired,
// so a scenario's fairness bound holds for the whole service, not just the
// keys that happened to stay registered. Extract it from a Snapshot.Diff
// to get the lanes of one interval.
type LaneSet struct {
	// RStarved counts readers pushed past the glsfair starvation bound;
	// RWaitPhases counts writer phases that bypassed blocked readers.
	RStarved    uint64
	RWaitPhases uint64
}

// ExtractLanes flattens s (typically a Diff) into its lane totals.
// Retired totals count too: a scenario that churns keys through Free must
// not lose its starved readers to the fold.
func ExtractLanes(s *Snapshot) LaneSet {
	ls := LaneSet{RStarved: s.Retired.RStarved, RWaitPhases: s.Retired.RWaitPhases}
	for i := range s.Locks {
		ls.RStarved += s.Locks[i].RStarved
		ls.RWaitPhases += s.Locks[i].RWaitPhases
	}
	return ls
}
