// Command lockstress plants lock-usage bugs and shows GLS debug mode
// catching them — the analogue of the paper's stress_error_gls benchmark
// (§4.2). Each -bug runs one scenario; -bug all runs every scenario.
//
//	lockstress -bug deadlock
//	lockstress -bug all
//
// Beyond the §4.2 bugs, the chaos runs (slowsubscriber, writerstarvation,
// readerstarvation, holderstall, abortstorm, sessiondrop) each validate
// their own criterion through the telemetry registry or over real sockets;
// they are the runs with no go test twin. (The multiprogramming arc is
// multiprog.scn; Free churn under handles is TestHighCardinalityChurn and
// TestFreeInvalidatesOnlyItsKey.)
//
// Exit status is 0 when every requested scenario detected what it plants.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gls"
	"gls/glk"
	"gls/internal/cycles"
	"gls/internal/sysmon"
	"gls/locks"
	"gls/telemetry"
)

// scenario is one stress case. Debug-mode bug scenarios set kind+plant
// (plant the bug, expect debug mode to report that issue kind); scenarios
// with their own success criterion set custom instead and validate
// themselves. The map is the single source of truth for -bug values.
type scenario struct {
	kind   gls.IssueKind
	plant  func(s *gls.Service)
	custom func() (what string, ok bool)
}

var scenarios = map[string]scenario{
	"slowsubscriber":   {custom: runSlowSubscriber},
	"writerstarvation": {custom: runWriterStarvation},
	"readerstarvation": {custom: runReaderStarvation},
	"holderstall":      {custom: runHolderStall},
	"abortstorm":       {custom: runAbortStorm},
	"sessiondrop":      {custom: runSessionDrop},
	"uninitialized": {kind: gls.IssueUninitializedLock, plant: func(s *gls.Service) {
		s.Lock(0x6344e0) // never InitLock'ed; StrictInit flags it
		s.Unlock(0x6344e0)
	}},
	"double-lock": {kind: gls.IssueDoubleLock, plant: func(s *gls.Service) {
		s.InitLock(0x100)
		s.Lock(0x100)
		s.TryLock(0x100) // owner re-acquiring
		s.Unlock(0x100)
	}},
	"unlock-free": {kind: gls.IssueUnlockFree, plant: func(s *gls.Service) {
		s.InitLock(0x62a494)
		s.Unlock(0x62a494) // released before ever acquired
	}},
	"wrong-owner": {kind: gls.IssueUnlockWrongOwner, plant: func(s *gls.Service) {
		s.InitLock(0x200)
		s.Lock(0x200)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Unlock(0x200) // thief
		}()
		wg.Wait()
		s.Unlock(0x200)
	}},
	"deadlock": {kind: gls.IssueDeadlock, plant: func(s *gls.Service) {
		const a, b = 0x1ad0010, 0x1acfff4
		s.InitLock(a)
		s.InitLock(b)
		aHeld, bHeld := make(chan struct{}), make(chan struct{})
		go func() {
			s.Lock(a)
			close(aHeld)
			<-bHeld
			s.Lock(b) // blocks forever
		}()
		go func() {
			s.Lock(b)
			close(bHeld)
			<-aHeld
			s.Lock(a) // blocks forever
		}()
		<-aHeld
		<-bHeld
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if s.CheckDeadlocks() > 0 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}},
}

// runWriterStarvation floods one glsrw key with readers and asserts two
// things through the telemetry registry: the writer still makes progress
// (the striped lock's back-out protocol and the write-preferring variant
// both exist to guarantee this; the scenario runs the adaptive default),
// and the price the writer pays is *visible* — the read/write split and
// the writer-blocked-by-readers drain time appear in the report.
func runWriterStarvation() (string, bool) {
	const what = "writer progress and drain-time visibility under a reader flood"
	const hotKey = 0x77001
	const writerQuota = 200
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	svc := gls.New(gls.Options{
		Telemetry: reg,
		GLK:       &glk.Config{Monitor: sysmon.New(sysmon.Options{DisableProbes: true})},
	})
	defer svc.Close()
	svc.InitRWLock(hotKey)
	reg.SetLabel(hotKey, "hot-rw")

	readers := 4 * runtime.GOMAXPROCS(0)
	if readers < 8 {
		readers = 8
	}
	fmt.Printf("flooding one rw key with %d readers on %d procs; writer needs %d writes...\n",
		readers, runtime.GOMAXPROCS(0), writerQuota)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				svc.RLock(hotKey)
				// Yield while holding so read shares genuinely overlap (and
				// overlap the writer's drain) even on GOMAXPROCS=1.
				runtime.Gosched()
				cycles.Wait(256)
				svc.RUnlock(hotKey)
			}
		}()
	}

	writes := 0
	deadline := time.Now().Add(30 * time.Second)
	for writes < writerQuota && time.Now().Before(deadline) {
		svc.Lock(hotKey)
		cycles.Wait(128)
		svc.Unlock(hotKey)
		writes++
		runtime.Gosched() // let the flood refill between writes
	}
	close(stop)
	wg.Wait()

	snap := reg.Snapshot()
	if err := snap.WriteText(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		return what, false
	}
	hot := snap.Lock(hotKey)
	if hot == nil {
		return what, false
	}
	st, _ := svc.GLKRWStats(hotKey)
	fmt.Printf("writer completed %d/%d; readers acquired %d (%.1f%% behind a writer); "+
		"writer drain total %v; rw mode %v (%d transitions)\n",
		writes, writerQuota, hot.RAcquisitions, 100*hot.RContentionRatio(),
		time.Duration(hot.WDrainNanos), st.RWMode, st.Transitions)
	return what, writes == writerQuota &&
		hot.RAcquisitions > 0 &&
		uint64(writes) <= hot.Acquisitions && // writer side counted in the exclusive lanes
		hot.WDrainNanos > 0 // blocked-by-readers time is visible
}

// starveProbe runs a continuous writer stream over l and measures, for a
// small reader population, how many writer phases each RLock spanned.
// Writers count phases from inside the critical section, so a reader's
// before/after delta is the phases that bypassed it (plus the one it
// overlapped) — and, because the counter can only be read before RLock is
// entered, every phase the reader slept through if it was descheduled
// between the load and its arrival. It returns the 90th percentile of the
// per-read counts, which a few such samples cannot move (the statistic the
// bounds are asserted on, as in locks.TestRWBoundedReaderWait), and the
// worst one. A reader that cannot finish its quota before the deadline
// reports starved=true with the phases it was stuck across.
func starveProbe(l locks.RWLock, writers, readers, readsEach int, deadline time.Duration) (p90, worst uint64, starved bool) {
	var phases atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.Lock()
				phases.Add(1)
				cycles.Wait(2000) // a real critical section: the flag stays up most of the time
				l.Unlock()
			}
		}()
	}
	crossed := make([][]uint64, readers)
	var rg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for phases.Load() == 0 {
				runtime.Gosched() // the stream is not running yet
			}
			for i := 0; i < readsEach; i++ {
				p0 := phases.Load()
				l.RLock()
				crossed[r] = append(crossed[r], phases.Load()-p0)
				l.RUnlock()
			}
		}()
	}
	go func() { rg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(deadline):
		starved = true
	}
	close(stop)
	wg.Wait()
	// Readers may still be blocked inside RLock; with the writers gone the
	// stream has ended, so they drain now. Their recorded spans count.
	<-done
	all := slices.Concat(crossed...)
	slices.Sort(all)
	return all[(len(all)-1)*9/10], all[len(all)-1], starved
}

// runReaderStarvation is the mirror of runWriterStarvation: continuous
// writer streams against a reader population, across the fairness family.
//
// Two stream shapes, because what "starvation" looks like depends on the
// scheduler. The *adversarial* stream is one writer re-acquiring with no
// yield between release and re-acquire: on any machine the flag-down window
// shrinks to a few instructions, and on a single P the window is only ever
// observable when the preemption tick happens to land inside it — this is
// where plain RWStriped's unbounded reader bypass shows, and where the
// adaptive lock must escalate itself to phase-fair admission. The
// *yield-heavy* stream is several writers handing the ticket around; it
// leaks scheduling gaps (so plain striped readers limp through even on one
// P) but drives real phase traffic — this is where the ≤ K-phase bounds of
// RWPhaseFair and bounded-bypass RWStriped are asserted.
//
// Bounded-bypass RWStriped is deliberately absent from the adversarial
// half: its bound is counted in waiting *rounds*, and a 1-P adversarial
// schedule prices every round at a full scheduler slice — admission is
// still guaranteed (the reader lands in the FIFO writer queue) but takes
// seconds of wall clock, which is the phase-fair lock's argument, not a
// scenario failure worth a 60-second CI stall.
func runReaderStarvation() (string, bool) {
	const what = "unbounded reader bypass on plain rwstriped; bounded wait on the fair variants; adaptive escalation"
	const (
		readers   = 2
		readsEach = 25
		maxBypass = 8
		// streamBound is the asserted phase bound under the yield-heavy
		// stream: the bypass bound plus the writer queue a reader can land
		// behind plus slack for scheduling noise.
		streamWriters = 4
		streamBound   = maxBypass + streamWriters + 20
		// adversarialBound is the demonstration threshold: a reader bypassed
		// by this many phases has no admission order worth the name.
		adversarialBound = 500
	)
	ok := true
	fmt.Printf("adversarial stream: 1 gapless writer vs %d readers × %d reads on %d procs\n",
		readers, readsEach, runtime.GOMAXPROCS(0))

	// The hole is shown on the worst read, not the percentile: half of plain
	// rwstriped's reads land in a gap and wait for nothing, and a sample the
	// scheduler inflated can only make a large count larger.
	plainP90, plainMax, plainStarved := starveProbe(locks.NewRWStriped(), 1, readers, readsEach, 6*time.Second)
	unbounded := plainStarved || plainMax > adversarialBound
	fmt.Printf("  rwstriped        p90 %8d max %8d phases  timed-out=%-5v  (hole %s)\n",
		plainP90, plainMax, plainStarved, map[bool]string{true: "demonstrated", false: "NOT demonstrated"}[unbounded])
	ok = ok && unbounded

	pfP90, pfMax, pfStarved := starveProbe(locks.NewRWPhaseFair(), 1, readers, readsEach, 30*time.Second)
	pfOK := !pfStarved && pfP90 <= 4 // admitted at the next phase boundary, even adversarially
	fmt.Printf("  rwphasefair      p90 %8d max %8d phases  timed-out=%-5v  (bound %s)\n",
		pfP90, pfMax, pfStarved, map[bool]string{true: "held", false: "VIOLATED"}[pfOK])
	ok = ok && pfOK

	// The adaptive default under the adversarial stream, through the
	// service: bypassed readers raise the starvation signal, the next
	// writer release switches the lock to rwphasefair, and the reason is
	// telemetry-visible. FairPeriods is set high because a single
	// adversarial writer never shows a queue, so the calm heuristic would
	// otherwise bounce the lock back mid-scenario (a 1-P artifact the
	// starvation signal would correct, at wall-clock cost).
	const hotKey = 0x88002
	reg := telemetry.New(telemetry.Options{SamplePeriod: 8})
	svc := gls.New(gls.Options{
		Telemetry: reg,
		GLKRW: &glk.RWConfig{SamplePeriod: 8, StarveBackouts: 4, FairPeriods: 250,
			Monitor: sysmon.New(sysmon.Options{DisableProbes: true})},
	})
	defer svc.Close()
	svc.InitRWLock(hotKey)
	reg.SetLabel(hotKey, "hot-rw")
	aP90, aMax, aStarved := starveProbe(serviceRW{svc: svc, key: hotKey}, 1, readers, readsEach, 45*time.Second)
	st, _ := svc.GLKRWStats(hotKey)
	snap := reg.Snapshot()
	if err := snap.WriteText(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		return what, false
	}
	hot := snap.Lock(hotKey)
	reached := st.RWMode == glk.RWModePhaseFair
	if hot != nil && !reached { // count the edge even if a late decision moved on
		for _, tr := range hot.Transitions {
			if tr.To == glk.RWModePhaseFair.String() {
				reached = true
			}
		}
	}
	fmt.Printf("  glkrw (service)  p90 %8d max %8d phases  timed-out=%-5v  mode %v (%d transitions)\n",
		aP90, aMax, aStarved, st.RWMode, st.Transitions)
	ok = ok && !aStarved && reached && hot != nil && hot.RStarved > 0

	fmt.Printf("yield-heavy stream: %d ticketed writers vs %d readers × %d reads (bound: %d phases)\n",
		streamWriters, readers, readsEach, streamBound)
	for _, v := range []struct {
		name string
		l    locks.RWLock
	}{
		{"rwstriped-b8", locks.NewRWStripedBounded(maxBypass)},
		{"rwphasefair", locks.NewRWPhaseFair()},
	} {
		p90, worst, starved := starveProbe(v.l, streamWriters, readers, readsEach, 30*time.Second)
		within := !starved && p90 <= streamBound
		fmt.Printf("  %-16s p90 %8d max %8d phases  timed-out=%-5v  (bound %s)\n",
			v.name, p90, worst, starved, map[bool]string{true: "held", false: "VIOLATED"}[within])
		ok = ok && within
	}
	return what, ok
}

// serviceRW adapts one service key to the locks.RWLock contract for the
// starvation probe.
type serviceRW struct {
	svc *gls.Service
	key uint64
}

func (s serviceRW) Lock()          { s.svc.Lock(s.key) }
func (s serviceRW) Unlock()        { s.svc.Unlock(s.key) }
func (s serviceRW) RLock()         { s.svc.RLock(s.key) }
func (s serviceRW) RUnlock()       { s.svc.RUnlock(s.key) }
func (s serviceRW) TryLock() bool  { return s.svc.TryLock(s.key) }
func (s serviceRW) TryRLock() bool { return s.svc.TryRLock(s.key) }

// runSlowSubscriber is the glslive stress: one subscriber drains the event
// stream while a second one stalls completely through a transition storm —
// a forced ticket→mcs→mutex arc, a reader-starvation escalation to
// phase-fair admission, and a Free churn that floods the ring with retired
// events. Success criteria:
//
//   - the live subscriber sees the GLK arc and the starvation escalation as
//     *ordered* events (ticket→mcs before mcs→mutex; the starvation signal
//     before the family change it triggers);
//   - drop accounting is exact at quiescence for both subscribers:
//     received + Dropped() == Published(), with the stalled one lapped;
//   - memory stays bounded: a stalled subscriber buffers nothing, so its
//     final drain yields at most the ring's capacity;
//   - the hot path never stalls on the stalled subscriber — the storm
//     completes its transitions within the deadlines a subscriber-free
//     run meets.
func runSlowSubscriber() (string, bool) {
	const what = "ordered event arc and exact drop accounting despite a stalled subscriber"
	const (
		hotKey     = 0xe0001
		rwKey      = 0xe0002
		churnBase  = uint64(1) << 33
		ringSize   = 64
		churnFrees = 512
	)
	frees := churnFrees
	if quickMode {
		frees = 192
	}
	mon := sysmon.New(sysmon.Options{Interval: time.Millisecond, DisableProbes: true})
	mon.Start()
	defer mon.Stop()
	reg := telemetry.New(telemetry.Options{SamplePeriod: 8, EventBuffer: ringSize})
	svc := gls.New(gls.Options{
		Telemetry: reg,
		GLK:       &glk.Config{Monitor: mon, SamplePeriod: 8, AdaptPeriod: 64},
		GLKRW: &glk.RWConfig{SamplePeriod: 8, StarveBackouts: 4, FairPeriods: 250,
			Monitor: mon},
	})
	defer svc.Close()
	svc.InitLock(hotKey)
	svc.InitRWLock(rwKey)
	reg.SetLabel(hotKey, "hot")
	reg.SetLabel(rwKey, "hot-rw")

	// Both subscribers attach before the first event, so Published() is
	// each one's exact denominator. The live one drains continuously; the
	// stalled one does not poll until the storm is over.
	live := reg.Events().Subscribe()
	defer live.Close()
	stalled := reg.Events().Subscribe()
	defer stalled.Close()

	var seen []*telemetry.Event
	drainStop := make(chan struct{})
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		for {
			select {
			case <-drainStop:
				seen = append(seen, live.Poll(0)...)
				return
			case <-live.C():
				seen = append(seen, live.Poll(0)...)
			}
		}
	}()

	// Phase 1+2: the oversubscription flood, staged so the arc is forced in
	// order — contention alone moves ticket→mcs, then the scheduler-pressure
	// hint moves mcs→mutex.
	workers := 8 * runtime.GOMAXPROCS(0)
	if workers < 16 {
		workers = 16
	}
	fmt.Printf("transition storm: %d goroutines on %d procs, ring %d, one stalled subscriber...\n",
		workers, runtime.GOMAXPROCS(0), ringSize)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				svc.Lock(hotKey)
				runtime.Gosched()
				cycles.Wait(512)
				svc.Unlock(hotKey)
			}
		}()
	}
	transitioned := func(to string) bool {
		if l := reg.Snapshot().Lock(hotKey); l != nil {
			for _, tr := range l.Transitions {
				if tr.To == to {
					return true
				}
			}
		}
		return false
	}
	waitFor := func(to string, d time.Duration) bool {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			if transitioned(to) {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
		return false
	}
	mcsSeen := waitFor(glk.ModeMCS.String(), 15*time.Second)
	mon.SetHint(workers)
	mutexSeen := waitFor(glk.ModeMutex.String(), 15*time.Second)
	mon.SetHint(0)
	close(stop)
	wg.Wait()

	// Phase 3: the adversarial writer stream starves readers on the service
	// RW key until the adaptive policy escalates to phase-fair admission.
	readsEach := 25
	if quickMode {
		readsEach = 12
	}
	_, _, rwStarvedOut := starveProbe(serviceRW{svc: svc, key: rwKey}, 1, 2, readsEach, 45*time.Second)

	// Phase 4: Free churn floods the ring with retired events — far more
	// than its capacity, so the stalled subscriber is definitely lapped.
	for i := 0; i < frees; i++ {
		k := churnBase + uint64(i%32)
		svc.Lock(k)
		svc.Unlock(k)
		svc.Free(k)
	}

	// Quiescence: publishers done, then the drainer's final poll.
	close(drainStop)
	<-drainDone

	published := reg.Events().Published()
	liveTotal := uint64(len(seen)) + live.Dropped()
	lateBatch := stalled.Poll(0)
	stalledTotal := uint64(len(lateBatch)) + stalled.Dropped()
	fmt.Printf("published %d; live saw %d (+%d dropped); stalled drained %d late (+%d dropped)\n",
		published, len(seen), live.Dropped(), len(lateBatch), stalled.Dropped())

	// Ordered arc on the live stream: ticket→mcs strictly before mcs→mutex
	// (safe to assert — transitions publish under the stats mutex, so their
	// stream order is their real order), plus the starvation signal and the
	// escalation it causes. The signal-vs-escalation order is NOT asserted:
	// the reader publishes its event after raising the internal flag, so a
	// preemption in between lets the writer's escalation reach the ring
	// first — a faithful record of publish order, not a stream defect.
	idxOf := func(match func(*telemetry.Event) bool) int {
		for i, ev := range seen {
			if match(ev) {
				return i
			}
		}
		return -1
	}
	edge := func(key uint64, from, to string) int {
		return idxOf(func(ev *telemetry.Event) bool {
			return ev.Kind == telemetry.EventTransition && ev.Key == key && ev.From == from && ev.To == to
		})
	}
	iMCS := edge(hotKey, glk.ModeTicket.String(), glk.ModeMCS.String())
	iMutex := edge(hotKey, glk.ModeMCS.String(), glk.ModeMutex.String())
	iStarve := idxOf(func(ev *telemetry.Event) bool {
		return ev.Kind == telemetry.EventStarvation && ev.Key == rwKey
	})
	iFair := idxOf(func(ev *telemetry.Event) bool {
		return ev.Kind == telemetry.EventTransition && ev.Key == rwKey && ev.To == glk.RWModePhaseFair.String()
	})
	ordered := true
	for i := 1; i < len(seen); i++ {
		if seen[i].Seq <= seen[i-1].Seq {
			ordered = false
		}
	}
	retiredSeen := 0
	for _, ev := range seen {
		if ev.Kind == telemetry.EventRetired {
			retiredSeen++
		}
	}
	fmt.Printf("arc: ticket→mcs@%d, mcs→mutex@%d; starvation@%d → rwphasefair@%d; %d retired events; seq-ordered %v\n",
		iMCS, iMutex, iStarve, iFair, retiredSeen, ordered)

	ok := mcsSeen && mutexSeen && !rwStarvedOut &&
		iMCS >= 0 && iMutex > iMCS && // the forced arc, in order
		iStarve >= 0 && iFair >= 0 && // signal and escalation both streamed
		ordered &&
		liveTotal == published && // exact accounting, live side
		stalledTotal == published && // exact accounting, stalled side
		stalled.Dropped() > 0 && // the stall really lost events
		len(lateBatch) <= ringSize // bounded: a stalled subscriber buffers nothing
	return what, ok
}

// bugOrder is the order -bug all runs the scenarios in.
var bugOrder = []string{"uninitialized", "double-lock", "unlock-free", "wrong-owner", "deadlock", "slowsubscriber", "writerstarvation", "readerstarvation", "holderstall", "abortstorm", "sessiondrop"}

// quickMode trims the chaos scenarios' iteration counts for CI smoke runs
// (-quick); set once in main before any scenario runs.
var quickMode bool

func main() {
	bug := flag.String("bug", "all", "scenario: "+strings.Join(bugOrder, ", ")+", all")
	quick := flag.Bool("quick", false, "reduced iteration counts (CI smoke runs)")
	flag.Parse()
	quickMode = *quick

	names := bugOrder
	if *bug != "all" {
		if _, ok := scenarios[*bug]; !ok {
			fmt.Fprintf(os.Stderr, "unknown bug %q\n", *bug)
			os.Exit(2)
		}
		names = []string{*bug}
	}

	failures := 0
	for _, name := range names {
		sc := scenarios[name]
		if sc.custom != nil {
			fmt.Printf("--- scenario %q ---\n", name)
			if what, ok := sc.custom(); ok {
				fmt.Printf("=> detected: %s\n\n", what)
			} else {
				fmt.Printf("=> MISSED: %s\n\n", what)
				failures++
			}
			continue
		}
		detected := make(chan gls.Issue, 16)
		svc := gls.New(gls.Options{
			Debug:                 true,
			StrictInit:            true,
			DeadlockWaitThreshold: 50 * time.Millisecond,
			DeadlockCheckInterval: 50 * time.Millisecond,
			GLK:                   &glk.Config{Monitor: sysmon.New(sysmon.Options{DisableProbes: true})},
			OnIssue: func(i gls.Issue) {
				fmt.Print(i.String())
				select {
				case detected <- i:
				default:
				}
			},
		})
		fmt.Printf("--- scenario %q ---\n", name)
		sc.plant(svc)

		ok := false
		deadline := time.After(5 * time.Second)
	wait:
		for {
			select {
			case i := <-detected:
				if i.Kind == sc.kind {
					ok = true
					break wait
				}
			case <-deadline:
				break wait
			default:
				select {
				case i := <-detected:
					if i.Kind == sc.kind {
						ok = true
						break wait
					}
				case <-time.After(10 * time.Millisecond):
				}
			}
		}
		if ok {
			fmt.Printf("=> detected: %v\n\n", sc.kind)
		} else {
			fmt.Printf("=> MISSED: %v\n\n", sc.kind)
			failures++
		}
		svc.Close()
	}
	if failures > 0 {
		os.Exit(1)
	}
}
