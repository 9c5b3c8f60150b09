package telemetry

import "testing"

func TestExtractLanesSums(t *testing.T) {
	s := &Snapshot{
		Locks: []LockSnapshot{
			{
				Key: 1, Arrivals: 100, Acquisitions: 90, Contended: 30,
				IsRW: true, RAcquisitions: 40, RStarved: 3, RWaitPhases: 11,
			},
			{
				Key: 2, Acquisitions: 10, Contended: 1,
				IsRW: true, RAcquisitions: 5, RWaitPhases: 4,
			},
		},
		Retired: RetiredSnapshot{
			Acquisitions: 50, Contended: 5,
			RAcquisitions: 20, RStarved: 1, RWaitPhases: 2,
		},
	}
	ls := ExtractLanes(s)
	if ls.RStarved != 4 || ls.RWaitPhases != 17 {
		t.Fatalf("read-side sums over live and retired locks wrong: %+v", ls)
	}
}

func TestExtractLanesOnDiff(t *testing.T) {
	// The engine extracts lanes from interval diffs: counters present in
	// both snapshots must cancel out, and a lock retired in the interval
	// keeps what it added.
	prev := &Snapshot{Locks: []LockSnapshot{{
		Key: 1, Gen: 1, Arrivals: 100, Acquisitions: 90, TryFails: 10, Timeouts: 8,
		RWaitPhases: 4, RStarved: 1,
	}}}
	cur := &Snapshot{
		Locks: []LockSnapshot{{
			Key: 1, Gen: 1, Arrivals: 160, Acquisitions: 145, TryFails: 15, Timeouts: 12,
			RWaitPhases: 9, RStarved: 1,
		}},
		Retired: RetiredSnapshot{Locks: 1, RStarved: 2, RWaitPhases: 6},
	}
	ls := ExtractLanes(cur.Diff(prev))
	if ls.RWaitPhases != 11 || ls.RStarved != 2 {
		t.Fatalf("interval lanes wrong: %+v", ls)
	}
}
