package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"gls/internal/stripe"
)

// buildSnapshot fabricates a two-lock snapshot for the format/diff tests.
func buildSnapshot() *Snapshot {
	return &Snapshot{
		SamplePeriod: 8,
		Locks: []LockSnapshot{
			{
				Key: 0x1, Label: "hot", Kind: "glk", Mode: "mutex",
				Arrivals: 1000, Acquisitions: 990, Contended: 400, TryFails: 10,
				Samples: 100, WaitNanos: 5_000_000, HoldNanos: 1_000_000, QueueTotal: 540,
				Transitions: []Transition{
					{From: "ticket", To: "mcs", Reason: "avg queue 4.20 > 3.00", Count: 1},
					{From: "mcs", To: "mutex", Reason: "multiprogramming (avg queue 5.10)", Count: 1},
				},
			},
			{
				Key: 0x2, Kind: "mcs",
				Arrivals: 50, Acquisitions: 50, Contended: 0,
				Samples: 5, WaitNanos: 1000, HoldNanos: 5000, QueueTotal: 5,
			},
		},
	}
}

func TestSnapshotSortedByContention(t *testing.T) {
	r := New(Options{})
	cold := r.Register(1, "glk")
	hot := r.Register(2, "glk")
	tok := stripe.Self()
	for i := 0; i < 3; i++ {
		a := cold.Arrive(tok)
		a.Acquired(false)
		cold.Release(tok)
	}
	for i := 0; i < 2; i++ {
		a := hot.Arrive(tok)
		a.Acquired(true)
		hot.Release(tok)
	}
	snap := r.Snapshot()
	if len(snap.Locks) != 2 || snap.Locks[0].Key != 2 {
		t.Fatalf("contended lock not first: %+v", snap.Locks)
	}
}

func TestWriteTextReport(t *testing.T) {
	var b bytes.Buffer
	if err := buildSnapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"[glstat] locks: 2",
		"acquisitions: 1040",
		"0x1", "hot", "mutex",
		"ticket→mcs ×1 (avg queue 4.20 > 3.00)",
		"mcs→mutex ×1 (multiprogramming (avg queue 5.10))",
		"0x2", "mcs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// The hot lock sorts first.
	if strings.Index(out, "0x1") > strings.Index(out, "0x2") {
		t.Errorf("locks not sorted by contention:\n%s", out)
	}
}

func TestWriteTextEmptySnapshot(t *testing.T) {
	var b bytes.Buffer
	if err := (&Snapshot{SamplePeriod: 64}).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "locks: 0") {
		t.Fatalf("empty report: %q", b.String())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	snap := buildSnapshot()
	var b bytes.Buffer
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Locks) != 2 || got.SamplePeriod != 8 {
		t.Fatalf("round trip: %+v", got)
	}
	l := got.Lock(0x1)
	if l == nil || l.Contended != 400 || l.Mode != "mutex" || len(l.Transitions) != 2 {
		t.Fatalf("lock 0x1 after round trip: %+v", l)
	}
	if _, err := ReadJSON(strings.NewReader("{nonsense")); err == nil {
		t.Fatal("accepted invalid JSON")
	}
}

func TestDiff(t *testing.T) {
	prev := buildSnapshot()
	cur := buildSnapshot()
	h := cur.Lock(0x1)
	h.Arrivals += 100
	h.Acquisitions += 100
	h.Contended += 60
	h.Samples += 10
	h.WaitNanos += 1_000_000
	h.HoldNanos += 500_000
	h.QueueTotal += 80
	h.Transitions = append([]Transition(nil), h.Transitions...)
	h.Transitions[1].Count++ // one more mcs→mutex
	// A lock created during the interval.
	cur.Locks = append(cur.Locks, LockSnapshot{Key: 0x3, Kind: "glk", Arrivals: 7, Acquisitions: 7})
	// A lock freed during the interval: its lifetime fold is its 50
	// pre-interval acquisitions (already reported live in prev) plus 7
	// interval ones.
	cur.Locks = append(cur.Locks[:1], cur.Locks[2:]...) // drop 0x2
	cur.Retired.Locks = 1
	cur.Retired.Acquisitions = 57

	d := cur.Diff(prev)
	dh := d.Lock(0x1)
	if dh.Acquisitions != 100 || dh.Contended != 60 || dh.Samples != 10 {
		t.Fatalf("hot diff: %+v", dh)
	}
	if dh.AvgQueue() != 8.0 {
		t.Fatalf("interval AvgQueue = %.2f, want 8", dh.AvgQueue())
	}
	if len(dh.Transitions) != 1 || dh.Transitions[0].To != "mutex" || dh.Transitions[0].Count != 1 {
		t.Fatalf("interval transitions: %+v", dh.Transitions)
	}
	if created := d.Lock(0x3); created == nil || created.Acquisitions != 7 {
		t.Fatalf("created lock in diff: %+v", created)
	}
	if d.Lock(0x2) != nil {
		t.Fatal("freed lock survived the diff")
	}
	// The retired delta nets out 0x2's pre-interval live counts: only the
	// 7 acquisitions that happened in the interval remain.
	if d.Retired.Locks != 1 || d.Retired.Acquisitions != 7 {
		t.Fatalf("retired diff: %+v", d.Retired)
	}
	if got := cur.Diff(nil); got != cur {
		t.Fatal("Diff(nil) should return the snapshot unchanged")
	}
}

// TestDiffSurvivesKeyRecreation: a key freed and re-created between two
// snapshots gets a fresh registration generation, so the interval keeps the
// new incarnation's full (small) counts instead of underflowing uint64
// against the old incarnation's larger ones.
func TestDiffSurvivesKeyRecreation(t *testing.T) {
	r := New(Options{SamplePeriod: 1})
	tok := stripe.Self()
	drive := func(st *LockStats, n int) {
		for i := 0; i < n; i++ {
			a := st.Arrive(tok)
			a.Acquired(false)
			st.Release(tok)
		}
	}
	drive(r.Register(5, "glk"), 100)
	before := r.Snapshot()
	drive(r.Get(5), 6) // interval activity on the doomed incarnation
	r.Unregister(5)
	drive(r.Register(5, "glk"), 3) // new incarnation, fewer counts
	d := r.Snapshot().Diff(before)
	l := d.Lock(5)
	if l == nil || l.Acquisitions != 3 {
		t.Fatalf("re-created key interval: %+v", l)
	}
	// Of the old incarnation's 106 folded acquisitions, 100 were already
	// reported live in `before`: the retired interval keeps only 6.
	if d.Retired.Locks != 1 || d.Retired.Acquisitions != 6 {
		t.Fatalf("retired interval: %+v", d.Retired)
	}
}

func TestDerivedMetricsZeroSafe(t *testing.T) {
	var l LockSnapshot
	if l.AvgWait() != 0 || l.AvgHold() != 0 || l.AvgQueue() != 0 || l.ContentionRatio() != 0 {
		t.Fatal("zero-sample metrics not zero")
	}
	if l.Name() != "0x0" {
		t.Fatalf("Name = %q", l.Name())
	}
}

// driveEveryCounter registers an RW lock under key and moves every counter
// a snapshot reports off zero: writer and reader acquisitions, contention,
// TryLock failures, both abort causes, a transition, the fairness lanes
// and all three histograms.
func driveEveryCounter(r *Registry, key uint64) {
	st := r.Register(key, "glkrw")
	st.EnableRW()
	tok := stripe.Self()
	for i := 0; i < 3; i++ {
		a := st.Arrive(tok)
		a.Acquired(i > 0)
		st.Release(tok)
		ra := st.RArrive(tok)
		ra.RAcquired(i > 0)
		st.RRelease(tok)
	}
	st.Arrive(tok).Failed()
	st.Arrive(tok).Aborted(true)
	st.Arrive(tok).Aborted(false)
	st.RArrive(tok).RFailed()
	st.RWaitedPhases(tok, 4)
	st.RStarvedEvent(tok)
	st.Transition("ticket", "mutex", "x")
}

// TestRetiredFoldCoversEveryCounter: every RetiredSnapshot counter that
// LockSnapshot also carries (same field name) is folded at Unregister, so
// a counter added to both types cannot be left out of the retired totals.
func TestRetiredFoldCoversEveryCounter(t *testing.T) {
	r := New(Options{SamplePeriod: 1})
	driveEveryCounter(r, 9)
	live := r.Snapshot().Lock(9)
	r.Unregister(9)
	retired := reflect.ValueOf(r.Snapshot().Retired)
	lv := reflect.ValueOf(*live)
	for i := 0; i < retired.NumField(); i++ {
		name := retired.Type().Field(i).Name
		got := retired.Field(i).Interface()
		switch name {
		case "Locks":
			if got != uint64(1) {
				t.Errorf("Retired.Locks = %v, want 1", got)
			}
			continue
		case "Transitions":
			if got != live.TransitionCount() || got == uint64(0) {
				t.Errorf("Retired.Transitions = %v, want %d", got, live.TransitionCount())
			}
			continue
		}
		want := lv.FieldByName(name)
		if !want.IsValid() {
			t.Errorf("RetiredSnapshot.%s has no LockSnapshot counterpart", name)
			continue
		}
		if want.IsZero() {
			t.Errorf("LockSnapshot.%s is zero: driveEveryCounter misses it", name)
		}
		if !reflect.DeepEqual(got, want.Interface()) {
			t.Errorf("Retired.%s = %v, want the live lock's %v", name, got, want.Interface())
		}
	}
}

// TestDiffNetsOutQuietRetirement: a lock freed with no activity since the
// previous snapshot adds one retired lock to the interval and nothing else
// — every counter it folds was already reported live, the fairness lanes
// and histograms included.
func TestDiffNetsOutQuietRetirement(t *testing.T) {
	r := New(Options{SamplePeriod: 1})
	driveEveryCounter(r, 9)
	before := r.Snapshot()
	r.Unregister(9)
	d := r.Snapshot().Diff(before)
	if want := (RetiredSnapshot{Locks: 1}); !reflect.DeepEqual(d.Retired, want) {
		t.Fatalf("interval retired = %+v, want %+v", d.Retired, want)
	}
}

// TestRetiredFoldLeavesEarlierSnapshots: a snapshot shares the registry's
// retired histograms, so a later Unregister must replace them, never write
// into them. The concurrent half runs the fold against readers of older
// snapshots, for the race detector.
func TestRetiredFoldLeavesEarlierSnapshots(t *testing.T) {
	r := New(Options{SamplePeriod: 1})
	driveEveryCounter(r, 1)
	r.Unregister(1)
	first := r.Snapshot()
	want := sumb(first.Retired.WaitHist)
	driveEveryCounter(r, 2)
	r.Unregister(2)
	if got := sumb(first.Retired.WaitHist); got != want {
		t.Fatalf("earlier snapshot's retired wait samples went %d -> %d", want, got)
	}
	if got := sumb(r.Snapshot().Retired.WaitHist); got != 2*want {
		t.Fatalf("retired wait samples = %d, want %d", got, 2*want)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := uint64(3); k < 40; k++ {
			driveEveryCounter(r, k)
			r.Unregister(k)
		}
	}()
	for prev := uint64(0); ; {
		s := r.Snapshot()
		n := sumb(s.Retired.WaitHist) + sumb(s.Retired.HoldHist) + sumb(s.Retired.RWaitHist)
		if n < prev {
			t.Fatalf("retired samples fell %d -> %d", prev, n)
		}
		prev = n
		select {
		case <-done:
			return
		default:
		}
	}
}
