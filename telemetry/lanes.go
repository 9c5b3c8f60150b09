package telemetry

// LaneSet is a snapshot flattened into the scalar "assertion lanes" the
// glscn scenario engine (internal/scenario) checks bounds against: the
// per-lock counters summed over every lock — live and retired, write and
// read side — so a scenario's fairness or timeout bound holds for the
// whole service, not just the keys that happened to stay registered.
// Extract it from a Snapshot.Diff to get the lanes of one interval.
type LaneSet struct {
	// Acquisitions and Contended sum the exclusive (writer) side.
	Acquisitions uint64
	Contended    uint64
	// TryFails is every non-acquisition; Timeouts and Cancels are its
	// deadline/context breakdown (TryFails ≥ Timeouts + Cancels).
	TryFails uint64
	Timeouts uint64
	Cancels  uint64
	// RAcquisitions sums the read side of RW locks.
	RAcquisitions uint64
	// RStarved counts readers pushed past the glsfair starvation bound;
	// RWaitPhases counts writer phases that bypassed blocked readers.
	RStarved    uint64
	RWaitPhases uint64
	// Transitions is every adaptation edge with a nonzero count in the
	// interval, across all locks (edge counts merged by From→To).
	Transitions []Transition
	// WaitHist is the sampled exclusive-side wait histogram merged over
	// all locks, retired included (hist.go bucket scheme).
	WaitHist []uint64
}

// ExtractLanes flattens s (typically a Diff) into its lane totals.
// Retired totals count too — a scenario that churns keys through Free
// must not lose its timeouts to the fold. (The retired block carries only
// an edge *count*, not per-edge pairs, so retired transitions cannot be
// attributed to a From→To and are excluded from Transitions.)
func ExtractLanes(s *Snapshot) LaneSet {
	var ls LaneSet
	edges := map[[2]string]int{} // edge → index in ls.Transitions
	for i := range s.Locks {
		l := &s.Locks[i]
		ls.Acquisitions += l.Acquisitions
		ls.Contended += l.Contended
		ls.TryFails += l.TryFails
		ls.Timeouts += l.Timeouts
		ls.Cancels += l.Cancels
		ls.RAcquisitions += l.RAcquisitions
		ls.RStarved += l.RStarved
		ls.RWaitPhases += l.RWaitPhases
		ls.WaitHist = addBuckets(ls.WaitHist, l.WaitHist)
		for _, t := range l.Transitions {
			k := [2]string{t.From, t.To}
			if j, ok := edges[k]; ok {
				ls.Transitions[j].Count += t.Count
				continue
			}
			edges[k] = len(ls.Transitions)
			ls.Transitions = append(ls.Transitions, t)
		}
	}
	r := &s.Retired
	ls.Acquisitions += r.Acquisitions
	ls.Contended += r.Contended
	ls.TryFails += r.TryFails
	ls.Timeouts += r.Timeouts
	ls.Cancels += r.Cancels
	ls.RAcquisitions += r.RAcquisitions
	ls.RStarved += r.RStarved
	ls.RWaitPhases += r.RWaitPhases
	ls.WaitHist = addBuckets(ls.WaitHist, r.WaitHist)
	return ls
}
