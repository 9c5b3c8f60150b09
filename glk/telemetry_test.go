package glk

import (
	"runtime"
	"sync"
	"testing"

	"gls/internal/sysmon"
	"gls/telemetry"
)

// telemetryConfig returns a fast-adapting config feeding a fresh registry.
func telemetryConfig(t *testing.T) (*Config, *telemetry.Registry) {
	t.Helper()
	mon := sysmon.New(sysmon.Options{DisableProbes: true})
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	return &Config{Monitor: mon, SamplePeriod: 4, AdaptPeriod: 16}, reg
}

func TestInstrumentedLockCounts(t *testing.T) {
	cfg, reg := telemetryConfig(t)
	cfg.Stats = reg.Register(1, "glk")
	l := New(cfg)
	for i := 0; i < 10; i++ {
		l.Lock()
		l.Unlock()
	}
	l.Lock()
	if l.TryLock() {
		t.Fatal("TryLock succeeded on held lock")
	}
	// While held, the snapshot's Present comes from glk's own presence
	// counter (the telemetry lanes keep no duplicate): exactly the holder.
	if p := reg.Snapshot().Lock(1).Present; p != 1 {
		t.Fatalf("Present while held = %d, want 1 (via the presence sampler)", p)
	}
	l.Unlock()
	s := reg.Snapshot().Lock(1)
	if s.Acquisitions != 11 || s.TryFails != 1 || s.Arrivals != 12 {
		t.Fatalf("counts: %+v", s)
	}
	if s.Mode != "ticket" {
		t.Fatalf("Mode = %q, want ticket (initial mode recorded)", s.Mode)
	}
	if s.Present != 0 {
		t.Fatalf("Present = %d, want 0 at rest", s.Present)
	}
	if s.Samples == 0 || s.HoldNanos == 0 {
		t.Fatalf("no timed samples recorded: %+v", s)
	}
}

func TestInstrumentedContentionAndTransitions(t *testing.T) {
	cfg, reg := telemetryConfig(t)
	cfg.Stats = reg.Register(7, "glk")
	l := New(cfg)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				l.Lock()
				runtime.Gosched() // pile waiters up even on one P
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	s := reg.Snapshot().Lock(7)
	if s.Acquisitions != 8000 {
		t.Fatalf("Acquisitions = %d, want 8000", s.Acquisitions)
	}
	if s.Contended == 0 {
		t.Fatal("contended workload recorded zero contended acquisitions")
	}
	if s.AvgQueue() <= 1.0 {
		t.Fatalf("AvgQueue = %.2f, want > 1 under contention", s.AvgQueue())
	}
	// Sustained queuing over 3 must have pushed the lock to mcs, and the
	// telemetry transition log must agree with the lock's own counter.
	if got := s.TransitionCount(); got != l.Transitions() {
		t.Fatalf("telemetry transitions %d != lock transitions %d", got, l.Transitions())
	}
	if s.TransitionCount() == 0 {
		t.Fatal("no transitions recorded under sustained contention")
	}
	if s.Mode != l.Mode().String() {
		t.Fatalf("telemetry mode %q != lock mode %q", s.Mode, l.Mode())
	}
}

// TestInstrumentedMutexTransition drives the multiprogramming path and
// checks the spinlock→mutex edge lands in the telemetry, reasons included —
// the events multiprog.scn's `expect transition ticket mutex` reads.
func TestInstrumentedMutexTransition(t *testing.T) {
	mon := sysmon.New(sysmon.Options{DisableProbes: true})
	mon.Start()
	defer mon.Stop()
	reg := telemetry.New(telemetry.Options{SamplePeriod: 4})
	cfg := &Config{Monitor: mon, SamplePeriod: 4, AdaptPeriod: 16}
	cfg.Stats = reg.Register(3, "glk")
	l := New(cfg)

	workers := 4 * runtime.GOMAXPROCS(0)
	mon.SetHint(workers + 1)
	defer mon.SetHint(0)
	start := mon.Rounds()
	for mon.Rounds() < start+2 {
		runtime.Gosched() // let the monitor observe the hint
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				l.Lock()
				runtime.Gosched()
				l.Unlock()
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	deadline := 20_000_000 // iterations of the polling loop, not time
	for i := 0; i < deadline; i++ {
		s := reg.Snapshot().Lock(3)
		for _, tr := range s.Transitions {
			if tr.To == ModeMutex.String() {
				if tr.Reason == "" {
					t.Fatal("mutex transition recorded without a reason")
				}
				if s.Mode != ModeMutex.String() && s.TransitionCount() < 2 {
					t.Fatalf("mode %q inconsistent with transitions %+v", s.Mode, s.Transitions)
				}
				return
			}
		}
		runtime.Gosched()
	}
	t.Fatal("no transition to mutex under oversubscription")
}

// TestUninstrumentedLockHasNoTelemetry pins the construction-time gating:
// without Config.Stats nothing is recorded anywhere.
func TestUninstrumentedLockHasNoTelemetry(t *testing.T) {
	reg := telemetry.New(telemetry.Options{})
	cfg, _ := telemetryConfig(t)
	l := New(cfg)
	l.Lock()
	l.Unlock()
	if reg.Len() != 0 {
		t.Fatal("uninstrumented lock registered telemetry")
	}
}
