package glk

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gls/internal/sysmon"
	"gls/internal/xrand"
	"gls/telemetry"
)

// transitionEdge reports whether the snapshot for key carries a from→to
// transition edge, and returns its recorded reason.
func transitionEdge(reg *telemetry.Registry, key uint64, from, to string) (string, bool) {
	snap := reg.Snapshot().Lock(key)
	if snap == nil {
		return "", false
	}
	for _, tr := range snap.Transitions {
		if tr.From == from && tr.To == to && tr.Count >= 1 {
			return tr.Reason, true
		}
	}
	return "", false
}

// TestRWLockStarvationEscalatesToPhaseFair pins the out-of-band starvation
// path deterministically: a reader blocked behind a held writer counts its
// bounded waiting rounds, raises the starvation signal at StarveBackouts,
// and the very next writer release switches the lock to phase-fair
// admission — reason and edge telemetry-visible.
func TestRWLockStarvationEscalatesToPhaseFair(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	st := reg.Register(1, "glkrw")
	l := NewRW(&RWConfig{Monitor: newTestMonitor(), StarveBackouts: 2, Stats: st})
	l.Lock()
	done := make(chan struct{})
	go func() {
		l.RLock()
		l.RUnlock()
		close(done)
	}()
	// The reader needs two bounded waiting rounds (a few thousand spins) to
	// raise the signal; give it wall-clock room before releasing.
	time.Sleep(100 * time.Millisecond)
	l.Unlock() // consumes the signal: rwstriped → rwphasefair, then releases
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("starved reader never admitted after the escalation")
	}
	if got := l.RWMode(); got != RWModePhaseFair {
		t.Fatalf("mode after starvation signal = %v, want rwphasefair", got)
	}
	reason, ok := transitionEdge(reg, 1, "rwstriped", "rwphasefair")
	if !ok {
		t.Fatal("rwstriped→rwphasefair transition not telemetry-visible")
	}
	if reason == "" {
		t.Fatal("starvation transition has no reason")
	}
	// The starvation lane moved: one reader crossed the bound. (The phase
	// lane stays zero here — a held writer generates no handoffs; the
	// rounds backstop is what fired.)
	snap := reg.Snapshot().Lock(1)
	if snap.RStarved != 1 {
		t.Fatalf("starvation lane: RStarved=%d (want 1), RWaitPhases=%d", snap.RStarved, snap.RWaitPhases)
	}
	// The lock still works across the family boundary.
	l.RLock()
	l.RLock()
	l.RUnlock()
	l.RUnlock()
	l.Lock()
	l.Unlock()
}

// starveOnce raises the starvation signal the way a bypassed reader does
// and lets one writer release consume it, which moves l to phase-fair
// admission.
func starveOnce(t *testing.T, l *RWLock) {
	t.Helper()
	l.starve.Store(1)
	l.Lock()
	l.Unlock()
	if l.RWMode() != RWModePhaseFair {
		t.Fatalf("a raised starvation signal left the lock in %v", l.RWMode())
	}
}

// TestRWLockPhaseFairReturnsToNative: with the writer stream gone (queue
// never exceeds the holder), FairPeriods calm sampled periods bring the
// lock back to rwstriped, its reader counter in whichever shape it was: this
// lock never observed reader concurrency, so the counter is still inline.
func TestRWLockPhaseFairReturnsToNative(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	st := reg.Register(2, "glkrw")
	l := NewRW(&RWConfig{Monitor: newTestMonitor(), SamplePeriod: 2, FairPeriods: 1, Stats: st})
	starveOnce(t, l)
	for i := 0; i < 6; i++ { // ≥ SamplePeriod × FairPeriods solitary writes
		l.Lock()
		l.Unlock()
	}
	if got := l.RWMode(); got != RWModeStriped || l.ReadersInflated() {
		t.Fatalf("mode after calm periods = %v, inflated %v; want rwstriped, inline (counter never inflated)",
			got, l.ReadersInflated())
	}
	if _, ok := transitionEdge(reg, 2, "rwphasefair", "rwstriped"); !ok {
		t.Fatal("rwphasefair→rwstriped transition not telemetry-visible")
	}
	// A lock whose stripes were live when it escalated returns to striped
	// (six writes are too few for the deflation dwell to fold them).
	l2 := NewRW(&RWConfig{Monitor: newTestMonitor(), SamplePeriod: 2, FairPeriods: 1})
	l2.RLock()
	l2.RLock()
	l2.RUnlock()
	l2.RUnlock()
	starveOnce(t, l2)
	for i := 0; i < 6; i++ {
		l2.Lock()
		l2.Unlock()
	}
	if got := l2.RWMode(); got != RWModeStriped || !l2.ReadersInflated() {
		t.Fatalf("inflated lock de-escalated to %v, inflated %v; want rwstriped, striped", got, l2.ReadersInflated())
	}
}

// striped returns a lock whose stripes two overlapping shares put up, with
// the test monitor and telemetry under key.
func striped(t *testing.T, reg *telemetry.Registry, key uint64) *RWLock {
	t.Helper()
	l := NewRW(&RWConfig{Monitor: newTestMonitor(), Stats: reg.Register(key, "glkrw")})
	l.RLock()
	l.RLock()
	l.RUnlock()
	l.RUnlock()
	if !l.ReadersInflated() || l.RWMode() != RWModeStriped {
		t.Fatalf("two overlapping shares left the lock in %v, inflated %v", l.RWMode(), l.ReadersInflated())
	}
	return l
}

// readWriteUntil runs two goroutines on l, one operation in every a write,
// until the lock leaves mode from or 20 s pass.
func readWriteUntil(l *RWLock, every int, from RWMode) {
	deadline := time.Now().Add(20 * time.Second)
	readWrite(l, 2, every, func() bool { return l.RWMode() != from || time.Now().After(deadline) })
}

// TestRWLockWriteMixGoesPhaseFair: two goroutines on a striped key at 10 %
// writes read it nine times per write, below rwMixToPhaseFair, and the
// write-mix rule moves it to phase-fair admission with its reason in
// telemetry, in the lock's one transition.
func TestRWLockWriteMixGoesPhaseFair(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	l := striped(t, reg, 6)
	readWriteUntil(l, 10, RWModeStriped)
	if got := l.RWMode(); got != RWModePhaseFair {
		t.Fatalf("a striped key at 10 %% writes is in %v, want rwphasefair", got)
	}
	reason, ok := transitionEdge(reg, 6, "rwstriped", "rwphasefair")
	if !ok || !strings.HasPrefix(reason, "write-mixed") {
		t.Fatalf("rwstriped→rwphasefair edge missing or not the write mix (ok=%v reason=%q)", ok, reason)
	}
	if got := l.Stats().Transitions; got != 1 {
		t.Fatalf("Transitions = %d, want 1 (striping the readers is no transition)", got)
	}
}

// TestRWLockReadMostlyReturnsToNative is the other direction: a striped key
// in phase-fair admission that two goroutines then read 99 times per write,
// past rwMixToNative, returns to its stripes once the writers are calm, and
// stays there — 99 reads per write is above the bound that would send it
// back.
func TestRWLockReadMostlyReturnsToNative(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	l := striped(t, reg, 7)
	starveOnce(t, l)
	readWriteUntil(l, 100, RWModePhaseFair)
	if got := l.RWMode(); got != RWModeStriped {
		t.Fatalf("a read-mostly key is in %v, want rwstriped", got)
	}
	if reason, ok := transitionEdge(reg, 7, "rwphasefair", "rwstriped"); !ok || reason == "" {
		t.Fatalf("rwphasefair→rwstriped edge missing or reasonless (ok=%v reason=%q)", ok, reason)
	}
	// Each call of stop after a goroutine's first ends a batch of 100
	// operations holding exactly one write: eight periods' worth.
	n := l.Stats().Transitions
	var batches atomic.Int64
	readWrite(l, 2, 100, func() bool { return batches.Add(1) > 2+8*DefaultRWSamplePeriod })
	if got := l.Stats().Transitions; got != n || l.RWMode() != RWModeStriped {
		t.Fatalf("%d more transitions in eight read-mostly periods, now %v", got-n, l.RWMode())
	}
}

// TestRWLockInlineReturnsWhileRead: the read ratio holds back only a key
// with stripes to sweep. A key with an inline counter sent to phase-fair by
// starvation, then read nine times per write by one goroutine — write-mixed,
// were it striped — returns to rwstriped, still inline, once its writers are
// calm.
func TestRWLockInlineReturnsWhileRead(t *testing.T) {
	l := NewRW(&RWConfig{Monitor: newTestMonitor(), SamplePeriod: 2, FairPeriods: 1})
	starveOnce(t, l)
	for i := 0; i < 6; i++ { // ≥ SamplePeriod × FairPeriods calm writes
		for r := 0; r < 9; r++ {
			l.RLock()
			l.RUnlock()
		}
		l.Lock()
		l.Unlock()
	}
	if got := l.RWMode(); got != RWModeStriped || l.ReadersInflated() {
		t.Fatalf("a calm inline key read nine times per write is in %v, inflated %v; want rwstriped, inline",
			got, l.ReadersInflated())
	}
}

// TestRWLockBlocksUnderMultiprogramming drives the blocking-mode decision
// through the same sysmon probe the exclusive lock uses: with the
// multiprogramming flag up and writers queued, a sampled release moves the
// lock to rwwritepref.
func TestRWLockBlocksUnderMultiprogramming(t *testing.T) {
	mon := sysmon.New(sysmon.Options{Interval: time.Millisecond, DisableProbes: true})
	mon.Start()
	defer mon.Stop()
	reg := telemetry.New(telemetry.Options{SamplePeriod: 4})
	st := reg.Register(3, "glkrw")
	l := NewRW(&RWConfig{Monitor: mon, SamplePeriod: 1, Stats: st})
	mon.SetHint(64) // far beyond any GOMAXPROCS: the census probe trips
	defer mon.SetHint(0)
	for start := mon.Rounds(); mon.Rounds() < start+2; {
		time.Sleep(time.Millisecond)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
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
				runtime.Gosched() // keep the second writer queued behind us
				l.Unlock()
			}
		}()
	}
	deadline := time.Now().Add(15 * time.Second)
	for l.RWMode() != RWModeWritePref && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := l.RWMode(); got != RWModeWritePref {
		t.Fatalf("mode under multiprogramming = %v, want rwwritepref", got)
	}
	if reason, ok := transitionEdge(reg, 3, "rwstriped", "rwwritepref"); !ok || reason == "" {
		t.Fatalf("rwstriped→rwwritepref transition missing or reasonless (ok=%v reason=%q)", ok, reason)
	}
	// The blocking family still honors the full contract.
	l.RLock()
	l.RUnlock()
	l.Lock()
	l.Unlock()
}

// TestRWLockWritePrefReturnsWhenCalm: a lock sent blocking by the
// monitor's flag and a queued writer leaves rwwritepref at its first
// sampled release once the flag is down, landing in rwstriped with its
// reader counter as it was (inline here).
func TestRWLockWritePrefReturnsWhenCalm(t *testing.T) {
	mon := newTestMonitor()
	mon.Start()
	defer mon.Stop()
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	st := reg.Register(4, "glkrw")
	l := NewRW(&RWConfig{Monitor: mon, SamplePeriod: 1, Stats: st})
	mon.SetHint(64)
	waitFlag(t, mon, true)
	l.Lock()
	done := make(chan struct{})
	go func() {
		l.Lock() // the second writer: a queue of two at the next boundary
		l.Unlock()
		close(done)
	}()
	for l.writerQueueLen() < 2 {
		runtime.Gosched()
	}
	l.Unlock()
	<-done
	if got := l.RWMode(); got != RWModeWritePref {
		t.Fatalf("mode after a contended release under the flag = %v, want rwwritepref", got)
	}
	mon.SetHint(0)
	waitFlag(t, mon, false)
	l.Lock()
	l.Unlock()
	if got := l.RWMode(); got != RWModeStriped || l.ReadersInflated() {
		t.Fatalf("mode after calm release = %v, inflated %v; want rwstriped, inline", got, l.ReadersInflated())
	}
	if _, ok := transitionEdge(reg, 4, "rwwritepref", "rwstriped"); !ok {
		t.Fatal("rwwritepref→rwstriped transition not telemetry-visible")
	}
}

// TestRWLockConfigValidation pins the new config errors.
func TestRWLockConfigValidation(t *testing.T) {
	if err := (RWConfig{FairPeriods: 300}).Validate(); err == nil {
		t.Fatal("FairPeriods past the 8-bit dwell range accepted")
	}
}

// TestRWLockFamilyStormExclusion is the cross-family soak: the
// multiprogramming flag toggles while writers and readers hammer the lock
// with aggressive adaptation settings, so the lock migrates between all
// three families mid-storm. The torn-state check proves mutual exclusion
// survives every hand-over; the final tally proves no writer update was
// lost. Run under -race in CI.
func TestRWLockFamilyStormExclusion(t *testing.T) {
	const writers, readers, iters = 3, 3, 1200
	mon := sysmon.New(sysmon.Options{Interval: time.Millisecond, DisableProbes: true})
	mon.Start()
	defer mon.Stop()
	reg := telemetry.New(telemetry.Options{SamplePeriod: 4})
	l := NewRW(&RWConfig{Monitor: mon, SamplePeriod: 2, FairPeriods: 1,
		StarveBackouts: 2, Stats: reg.Register(5, "glkrw")})
	var x, y int // guarded by l
	stop := make(chan struct{})
	var togglerWG sync.WaitGroup
	togglerWG.Add(1)
	go func() { // oscillate the multiprogramming flag
		defer togglerWG.Done()
		hint := 0
		for {
			select {
			case <-stop:
				mon.SetHint(0)
				return
			case <-time.After(5 * time.Millisecond):
				hint ^= 64
				mon.SetHint(hint)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				x++
				runtime.Gosched() // widen the window a torn read would need
				y++
				l.Unlock()
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.RLock()
				if x != y {
					t.Errorf("reader observed torn state x=%d y=%d", x, y)
					l.RUnlock()
					return
				}
				l.RUnlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	togglerWG.Wait()
	if x != writers*iters || y != writers*iters {
		t.Fatalf("x=%d y=%d, want both %d (lost writer updates)", x, y, writers*iters)
	}
	if got := l.Readers(); got != 0 {
		t.Fatalf("Readers after storm = %d, want 0", got)
	}
}

// pinnedRW returns a lock held in mode for the length of a benchmark: its
// sampling boundary and starvation bound are out of reach, and it is moved
// to mode before anyone has held it. (A holder may not transition and then
// Unlock: Unlock releases the family the mode word names.)
func pinnedRW(mode RWMode) *RWLock {
	l := NewRW(&RWConfig{SamplePeriod: math.MaxUint32, StarveBackouts: math.MaxUint32, Monitor: newTestMonitor()})
	if mode == RWModeStriped {
		l.readers.Inflate()
	}
	l.transitionTo(mode, "pinned")
	return l
}

// BenchmarkRWWriteShare is the crossover sweep behind rwMixToPhaseFair and
// rwMixToNative: two goroutines on 16 keys, each operation a write with the
// given probability and a read otherwise, on the adaptive lock and on each
// family it picks between, pinned. Each goroutine makes b.N operations, so
// ns/op is the time of one operation on one goroutine. The locks live across
// the b.N rounds, so the adaptive one is measured settled.
func BenchmarkRWWriteShare(b *testing.B) {
	const keys, workers = 16, 2
	for _, pct := range []uint64{0, 2, 5, 10, 20} {
		for _, mode := range []RWMode{0, RWModeStriped, RWModePhaseFair} {
			name := "adaptive"
			if mode != 0 {
				name = mode.String()
			}
			ls := make([]*RWLock, keys)
			for i := range ls {
				if mode == 0 {
					ls[i] = NewRW(nil)
				} else {
					ls[i] = pinnedRW(mode)
				}
			}
			b.Run(fmt.Sprintf("writes=%d%%/%s", pct, name), func(b *testing.B) {
				var wg sync.WaitGroup
				for w := uint64(1); w <= workers; w++ {
					wg.Add(1)
					go func(rng xrand.SplitMix64) {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							r := rng.Next()
							l := ls[r%keys]
							if (r>>32)%100 < pct {
								l.Lock()
								l.Unlock()
							} else {
								l.RLock()
								l.RUnlock()
							}
						}
					}(xrand.Seeded(w))
				}
				wg.Wait()
			})
		}
	}
}
