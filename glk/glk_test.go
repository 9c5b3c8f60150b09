package glk

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gls/internal/sysmon"
)

// newTestMonitor returns a stopped, probe-free monitor: the multiprog flag
// is driven purely by update()/hints, keeping tests deterministic.
func newTestMonitor() *sysmon.Monitor {
	return sysmon.New(sysmon.Options{DisableProbes: true})
}

// waitFlag waits for a started test monitor's multiprogramming flag to read
// want, after the test has moved its hint.
func waitFlag(t *testing.T, mon *sysmon.Monitor, want bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); mon.Multiprogrammed() != want; {
		if time.Now().After(deadline) {
			t.Fatalf("monitor flag never became %v", want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNewDefaults(t *testing.T) {
	l := New(nil)
	if got := l.Mode(); got != ModeTicket {
		t.Fatalf("fresh lock mode = %v, want ticket", got)
	}
	if l.set.samplePeriod != DefaultSamplePeriod {
		t.Fatalf("defaults not applied: %+v", l.set)
	}
	if l.set.adaptSamples != 32 {
		t.Fatalf("default periods give %d samples per adaptation, paper wants 32",
			l.set.adaptSamples)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SamplePeriod: 512, AdaptPeriod: 128},
		// Non-multiple periods would silently shorten the adaptation
		// cadence (the periods are countdowns on sampling boundaries).
		{SamplePeriod: 100, AdaptPeriod: 150},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(&Config{SamplePeriod: 512, AdaptPeriod: 128})
}

func TestModeString(t *testing.T) {
	if ModeTicket.String() != "ticket" || ModeMCS.String() != "mcs" || ModeMutex.String() != "mutex" {
		t.Fatal("mode names do not match the paper")
	}
	if !strings.Contains(Mode(42).String(), "42") {
		t.Fatal("unknown mode String not diagnostic")
	}
}

func TestBasicLockUnlock(t *testing.T) {
	l := New(&Config{Monitor: newTestMonitor()})
	for i := 0; i < 1000; i++ {
		l.Lock()
		l.Unlock()
	}
	if got := l.Stats().Acquired; got != 1000 {
		t.Fatalf("Acquired = %d, want 1000", got)
	}
}

func TestTryLock(t *testing.T) {
	l := New(&Config{Monitor: newTestMonitor()})
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	res := make(chan bool)
	go func() { res <- l.TryLock() }()
	if <-res {
		t.Fatal("TryLock succeeded on held lock")
	}
	l.Unlock()
}

func TestUnlockWithoutLockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of unlocked GLK lock did not panic")
		}
	}()
	New(&Config{Monitor: newTestMonitor()}).Unlock()
}

// TestMutualExclusionWithFrequentAdaptation uses tiny periods so the lock
// transitions constantly while goroutines hammer a plain counter: a failure
// of the paper's Figure 4 protocol loses updates or admits two holders.
func TestMutualExclusionWithFrequentAdaptation(t *testing.T) {
	mon := newTestMonitor()
	l := New(&Config{SamplePeriod: 1, AdaptPeriod: 2, Monitor: mon})
	const goroutines, iters = 8, 3000
	var counter int
	var inCS atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				if inCS.Add(1) != 1 {
					t.Error("two holders inside the critical section")
				}
				counter++
				inCS.Add(-1)
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, goroutines*iters)
	}
}

// TestAdaptsToMCSUnderContention: sustained queuing above the threshold must
// flip the lock to mcs mode (paper Figure 8 behaviour).
func TestAdaptsToMCSUnderContention(t *testing.T) {
	l := New(&Config{SamplePeriod: 8, AdaptPeriod: 64, Monitor: newTestMonitor()})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
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
				for i := 0; i < 50; i++ {
					_ = i * i // keep the queue populated
				}
				l.Unlock()
			}
		}()
	}
	deadline := time.After(30 * time.Second)
	for l.Mode() != ModeMCS {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("lock never adapted to mcs (mode %v, stats %+v)", l.Mode(), l.Stats())
		default:
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
}

// TestAdaptsBackToTicket: once contention vanishes the EMA decays below the
// down-threshold and the lock returns to ticket mode.
func TestAdaptsBackToTicket(t *testing.T) {
	l := New(&Config{SamplePeriod: 4, AdaptPeriod: 16, Monitor: newTestMonitor()})
	// Force mcs via contention.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
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
				l.Unlock()
			}
		}()
	}
	deadline := time.After(30 * time.Second)
	for l.Mode() != ModeMCS {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Skip("could not establish mcs mode on this machine")
		default:
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()

	// Single-threaded usage must bring it back to ticket.
	for i := 0; i < 10000 && l.Mode() != ModeTicket; i++ {
		l.Lock()
		l.Unlock()
	}
	if got := l.Mode(); got != ModeTicket {
		t.Fatalf("mode after contention ceased = %v, want ticket", got)
	}
}

// TestMultiprogrammingSwitchesToMutex: the library-wide flag plus non-trivial
// queuing must move the lock to mutex mode.
func TestMultiprogrammingSwitchesToMutex(t *testing.T) {
	mon := newTestMonitor()
	mon.Start()
	defer mon.Stop()
	mon.SetHint(runtime.GOMAXPROCS(0) + 8)

	l := New(&Config{SamplePeriod: 4, AdaptPeriod: 16, Monitor: mon})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
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
				l.Unlock()
			}
		}()
	}
	deadline := time.After(30 * time.Second)
	for l.Mode() != ModeMutex {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("lock never adapted to mutex (mode %v, stats %+v)", l.Mode(), l.Stats())
		default:
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
}

// TestMultiprogrammedSwitchWithinSamples: once the multiprogramming flag is
// up, a lock whose queue EMA reaches mutexQueueFloor blocks from the sample
// that sees it, not from the next adaptation boundary (paper §3: contended
// locks under multiprogramming must block). Goroutines outnumbering
// GOMAXPROCS run over a few locks at the default periods, each lock for
// `samples` samples — a quarter of one adaptation period, so only a switch
// taken between adaptation boundaries can move it — and every lock whose
// EMA ends over the floor must be in mutex mode. glkrw re-decides on every
// sample already; its subtest holds it to the same bound.
func TestMultiprogrammedSwitchWithinSamples(t *testing.T) {
	const (
		goroutines = 8
		nlocks     = 2
		samples    = 8 // K, in samples of each lock's own period
	)
	// The flag rises on the hint and stays up: a stopped monitor keeps its
	// last value.
	mon := newTestMonitor()
	mon.Start()
	mon.SetHint(runtime.GOMAXPROCS(0) + goroutines)
	waitFlag(t, mon, true)
	mon.Stop()

	// run gives each lock samples*period critical sections, shared by
	// goroutines/nlocks goroutines. The holder yields inside: a holder
	// that loses its P is what the flag is about, and it queues the rest.
	run := func(period int, cs func(i int)) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for n := 0; n < samples*period*nlocks/goroutines; n++ {
					cs(i)
				}
			}(g % nlocks)
		}
		wg.Wait()
	}

	t.Run("glk", func(t *testing.T) {
		var ls [nlocks]*Lock
		for i := range ls {
			ls[i] = New(&Config{Monitor: mon})
		}
		run(DefaultSamplePeriod, func(i int) {
			ls[i].Lock()
			runtime.Gosched()
			ls[i].Unlock()
		})
		queued := 0
		for i, l := range ls {
			s := l.Stats()
			if s.QueueEMA < mutexQueueFloor {
				continue
			}
			queued++
			if s.Mode != ModeMutex {
				t.Errorf("lock %d: queue EMA %.2f ≥ %.1f under multiprogramming, still %v after %d acquisitions (%d samples)",
					i, s.QueueEMA, mutexQueueFloor, s.Mode, s.Acquired, samples)
			}
		}
		if queued == 0 {
			t.Fatal("no lock's queue EMA reached the floor: the test checked nothing")
		}
	})

	t.Run("glkrw", func(t *testing.T) {
		var ls [nlocks]*RWLock
		for i := range ls {
			ls[i] = NewRW(&RWConfig{Monitor: mon})
		}
		run(DefaultRWSamplePeriod, func(i int) {
			ls[i].Lock()
			runtime.Gosched()
			ls[i].Unlock()
		})
		for i, l := range ls {
			if m := l.RWMode(); m != RWModeWritePref {
				t.Errorf("lock %d: writers queued under multiprogramming, still %v after %d samples", i, m, samples)
			}
		}
	})
}

// TestLowContentionStaysTicketUnderMultiprogramming: paper §3 — "GLK objects
// that operate with minimal queuing do not switch to mutex, but remain in
// ticket mode".
func TestLowContentionStaysTicketUnderMultiprogramming(t *testing.T) {
	mon := newTestMonitor()
	mon.Start()
	defer mon.Stop()
	mon.SetHint(runtime.GOMAXPROCS(0) + 8)
	// Let the flag propagate.
	deadline := time.After(10 * time.Second)
	for !mon.Multiprogrammed() {
		select {
		case <-deadline:
			t.Fatal("monitor never raised the flag")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	l := New(&Config{SamplePeriod: 4, AdaptPeriod: 16, Monitor: mon})
	for i := 0; i < 1000; i++ { // single-threaded: queue length is always 1
		l.Lock()
		l.Unlock()
	}
	if got := l.Mode(); got != ModeTicket {
		t.Fatalf("uncontended lock under multiprogramming switched to %v", got)
	}
}

func TestOnTransitionCallback(t *testing.T) {
	type tr struct {
		from, to Mode
		reason   string
	}
	var mu sync.Mutex
	var seen []tr
	l := New(&Config{
		SamplePeriod: 4, AdaptPeriod: 16, Monitor: newTestMonitor(),
		OnTransition: func(from, to Mode, reason string) {
			mu.Lock()
			seen = append(seen, tr{from, to, reason})
			mu.Unlock()
		},
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
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
				l.Unlock()
			}
		}()
	}
	deadline := time.After(30 * time.Second)
	// Stats would race the holders' plain period words; the count is atomic.
	transitioned := func() bool { st := l.adapt.Load(); return st != nil && st.transitions.Load() != 0 }
	for !transitioned() {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Skip("no transition observed on this machine")
		default:
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("Transitions > 0 but callback never ran")
	}
	first := seen[0]
	if first.from != ModeTicket || first.to != ModeMCS {
		t.Fatalf("first transition %v->%v, want ticket->mcs", first.from, first.to)
	}
	if !strings.Contains(first.reason, "queue") {
		t.Fatalf("transition reason %q does not mention queuing", first.reason)
	}
}

func TestDisableAdaptationFreezesMode(t *testing.T) {
	l := New(&Config{SamplePeriod: 1, AdaptPeriod: 2, DisableAdaptation: true, Monitor: newTestMonitor()})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				l.Lock()
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if got := l.Mode(); got != ModeTicket {
		t.Fatalf("adaptation-disabled lock changed mode to %v", got)
	}
	if l.Stats().Transitions != 0 {
		t.Fatal("adaptation-disabled lock recorded transitions")
	}
}

func TestStatsSnapshot(t *testing.T) {
	l := New(&Config{SamplePeriod: 2, AdaptPeriod: 4, Monitor: newTestMonitor()})
	for i := 0; i < 100; i++ {
		l.Lock()
		l.Unlock()
	}
	s := l.Stats()
	if s.Acquired != 100 {
		t.Errorf("Acquired = %d, want 100", s.Acquired)
	}
	if s.Mode != ModeTicket {
		t.Errorf("Mode = %v, want ticket", s.Mode)
	}
	// Single-threaded: every sample sees just the holder.
	if s.QueueEMA < 0.9 || s.QueueEMA > 1.1 {
		t.Errorf("QueueEMA = %.2f, want ~1", s.QueueEMA)
	}
	if s.QueueTotal != 50 { // 100 CS / sample period 2, each sample = 1
		t.Errorf("QueueTotal = %d, want 50", s.QueueTotal)
	}
}

// TestModeTransitionLiveness: goroutines queued on the old low-level lock
// must drain through it and re-acquire via the new mode.
func TestModeTransitionLiveness(t *testing.T) {
	mon := newTestMonitor()
	l := New(&Config{SamplePeriod: 2, AdaptPeriod: 4, Monitor: mon})
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				l.Lock()
				total.Add(1)
				l.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("workers wedged across mode transitions (total %d, mode %v)",
			total.Load(), l.Mode())
	}
	if total.Load() != 20000 {
		t.Fatalf("total = %d, want 20000", total.Load())
	}
}
