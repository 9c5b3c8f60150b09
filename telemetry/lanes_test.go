package telemetry

import "testing"

func TestExtractLanesSums(t *testing.T) {
	s := &Snapshot{
		Locks: []LockSnapshot{
			{
				Key: 1, Arrivals: 100, Acquisitions: 90, Contended: 30,
				TryFails: 10, Timeouts: 6, Cancels: 2,
				IsRW: true, RAcquisitions: 40, RStarved: 3, RWaitPhases: 11,
				WaitHist: []uint64{0, 5, 10},
				Transitions: []Transition{
					{From: "ticket", To: "mcs", Count: 2},
					{From: "mcs", To: "mutex", Count: 1},
				},
			},
			{
				Key: 2, Acquisitions: 10, Contended: 1, TryFails: 1, Timeouts: 1,
				WaitHist: []uint64{0, 0, 0, 7},
				Transitions: []Transition{
					{From: "ticket", To: "mcs", Count: 5},
				},
			},
		},
		Retired: RetiredSnapshot{
			Acquisitions: 50, Contended: 5, TryFails: 4, Timeouts: 3, Cancels: 1,
			RAcquisitions: 20, RStarved: 1, RWaitPhases: 2,
			WaitHist: []uint64{1},
		},
	}
	ls := ExtractLanes(s)
	if ls.Acquisitions != 150 || ls.Contended != 36 || ls.TryFails != 15 {
		t.Fatalf("exclusive sums wrong: %+v", ls)
	}
	if ls.Timeouts != 10 || ls.Cancels != 3 {
		t.Fatalf("abort sums wrong: %+v", ls)
	}
	if ls.RAcquisitions != 60 || ls.RStarved != 4 || ls.RWaitPhases != 13 {
		t.Fatalf("read-side sums wrong: %+v", ls)
	}
	// Same-edge transitions merge; distinct edges stay distinct.
	if len(ls.Transitions) != 2 {
		t.Fatalf("want 2 merged edges, got %+v", ls.Transitions)
	}
	for _, tr := range ls.Transitions {
		if want := map[string]uint64{"ticket→mcs": 7, "mcs→mutex": 1}[tr.From+"→"+tr.To]; tr.Count != want {
			t.Fatalf("%s→%s count %d, want %d", tr.From, tr.To, tr.Count, want)
		}
	}
	// Histograms merge element-wise across live and retired.
	want := []uint64{1, 5, 10, 7}
	if len(ls.WaitHist) != len(want) {
		t.Fatalf("merged hist %v, want %v", ls.WaitHist, want)
	}
	for i := range want {
		if ls.WaitHist[i] != want[i] {
			t.Fatalf("merged hist %v, want %v", ls.WaitHist, want)
		}
	}
}

func TestExtractLanesOnDiff(t *testing.T) {
	// The engine extracts lanes from interval diffs: counters present in
	// both snapshots must cancel out.
	prev := &Snapshot{Locks: []LockSnapshot{{
		Key: 1, Gen: 1, Arrivals: 100, Acquisitions: 90, TryFails: 10, Timeouts: 8,
		RWaitPhases: 4, RStarved: 1,
	}}}
	cur := &Snapshot{Locks: []LockSnapshot{{
		Key: 1, Gen: 1, Arrivals: 160, Acquisitions: 145, TryFails: 15, Timeouts: 12,
		RWaitPhases: 9, RStarved: 1,
	}}}
	ls := ExtractLanes(cur.Diff(prev))
	if ls.Timeouts != 4 || ls.RWaitPhases != 5 || ls.RStarved != 0 {
		t.Fatalf("interval lanes wrong: %+v", ls)
	}
	if ls.Acquisitions != 55 { // 60 arrivals − 5 try-fails, re-derived by Diff
		t.Fatalf("interval acquisitions %d, want 55", ls.Acquisitions)
	}
}
