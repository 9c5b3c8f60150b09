package sysmon

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitRounds blocks until the monitor has completed n more rounds.
func waitRounds(t *testing.T, m *Monitor, n uint64) {
	t.Helper()
	start := m.Rounds()
	deadline := time.After(30 * time.Second)
	for m.Rounds() < start+n {
		select {
		case <-deadline:
			t.Fatal("monitor made no progress")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestHintTriggersMultiprog(t *testing.T) {
	m := New(Options{Interval: time.Millisecond, DisableProbes: true})
	m.Start()
	defer m.Stop()

	if m.Multiprogrammed() {
		t.Fatal("fresh monitor reports multiprogramming")
	}
	m.SetHint(runtime.GOMAXPROCS(0) + 10)
	waitRounds(t, m, 3)
	if !m.Multiprogrammed() {
		t.Fatal("hint above GOMAXPROCS did not set the flag")
	}
}

func TestFlagClearsAfterCalmRounds(t *testing.T) {
	m := New(Options{Interval: time.Millisecond, DisableProbes: true})
	m.Start()
	defer m.Stop()

	m.SetHint(runtime.GOMAXPROCS(0) + 10)
	waitRounds(t, m, 3)
	if !m.Multiprogrammed() {
		t.Fatal("flag never set")
	}
	m.SetHint(0)
	waitRounds(t, m, minRequiredCalm+3)
	if m.Multiprogrammed() {
		t.Fatal("flag did not clear after calm rounds")
	}
}

func TestExponentialCalmOnRelapse(t *testing.T) {
	// Drive the update state machine directly (no goroutine) to verify the
	// doubling policy deterministically.
	m := New(Options{DisableProbes: true})

	m.update(true)
	if !m.Multiprogrammed() {
		t.Fatal("flag not set")
	}
	first := m.requiredCalm
	for i := uint64(0); i < first; i++ {
		m.update(false)
	}
	if m.Multiprogrammed() {
		t.Fatal("flag not cleared after requiredCalm rounds")
	}
	// Immediate relapse must double the requirement.
	m.update(true)
	if m.requiredCalm != first*2 {
		t.Fatalf("requiredCalm after relapse = %d, want %d", m.requiredCalm, first*2)
	}
	// And the cap must hold.
	for i := 0; i < 64; i++ {
		m.update(true)
		for j := uint64(0); j < maxRequiredCalm+1; j++ {
			m.update(false)
		}
		m.update(true)
	}
	if m.requiredCalm > maxRequiredCalm {
		t.Fatalf("requiredCalm = %d exceeds cap %d", m.requiredCalm, maxRequiredCalm)
	}
}

func TestLongCalmDoesNotDouble(t *testing.T) {
	m := New(Options{DisableProbes: true})
	m.update(true)
	for i := uint64(0); i < m.requiredCalm; i++ {
		m.update(false)
	}
	first := m.requiredCalm
	// Stay calm for a long time before relapsing: no doubling.
	for i := uint64(0); i < first*8; i++ {
		m.update(false)
	}
	m.update(true)
	if m.requiredCalm != first {
		t.Fatalf("requiredCalm after long calm = %d, want unchanged %d", m.requiredCalm, first)
	}
}

func TestAddHintNeverNegative(t *testing.T) {
	m := New(Options{DisableProbes: true})
	m.AddHint(-5)
	if got := m.Hint(); got != 0 {
		t.Fatalf("Hint = %d, want 0", got)
	}
	m.AddHint(3)
	m.AddHint(-1)
	if got := m.Hint(); got != 2 {
		t.Fatalf("Hint = %d, want 2", got)
	}
	m.SetHint(-7)
	if got := m.Hint(); got != 0 {
		t.Fatalf("SetHint(-7) then Hint = %d, want 0", got)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	m := New(Options{Interval: time.Millisecond})
	m.Stop() // stopping a never-started monitor is fine
	m.Start()
	m.Start() // double start is a no-op
	waitRounds(t, m, 1)
	m.Stop()
	m.Stop() // double stop is fine
}

// spinners starts n CPU-bound goroutines — a millisecond or so of arithmetic,
// then a Gosched, the way real work meets the scheduler now and then — and
// returns the function that stops them and waits for them.
func spinners(n int) (stop func()) {
	var quit atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for !quit.Load() {
				for j := 0; j < 1<<20; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
				runtime.Gosched()
			}
			_ = x
		}()
	}
	return func() { quit.Store(true); wg.Wait() }
}

// awaitFlag polls the flag (sparsely: the poller is a goroutine too) until
// it reads want or d has passed, and reports whether it got there.
func awaitFlag(m *Monitor, want bool, d time.Duration) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m.Multiprogrammed() == want {
			return true
		}
	}
	return m.Multiprogrammed() == want
}

// TestRegimes is the live check of what the estimator is for: as many
// CPU-bound goroutines as Ps keep every P busy and every timer late, and
// are not multiprogramming; four times as many are, and the flag says so
// within half a second and takes it back when they stop.
func TestRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("load-generation test")
	}
	m := New(Options{})
	m.Start()
	defer m.Stop()
	procs := runtime.GOMAXPROCS(0)

	stop := spinners(procs)
	raised := awaitFlag(m, true, 400*time.Millisecond)
	stop()
	if raised {
		t.Fatalf("%d spinners on %d Ps raised the flag", procs, procs)
	}

	stop = spinners(4 * procs)
	raised = awaitFlag(m, true, 500*time.Millisecond)
	stop()
	if !raised {
		t.Fatalf("%d spinners on %d Ps did not raise the flag within 500 ms", 4*procs, procs)
	}
	// Two calm windows, then the calm rounds the relapses (if the flag
	// flapped on the way up) have earned.
	if !awaitFlag(m, false, 10*time.Second) {
		t.Fatal("flag still up 10 s after the spinners stopped")
	}
}

func TestSharedSingleton(t *testing.T) {
	defer StopShared()
	a := Shared()
	b := Shared()
	if a != b {
		t.Fatal("Shared returned distinct monitors")
	}
	StopShared()
	c := Shared()
	if c == a {
		t.Fatal("StopShared did not discard the old monitor")
	}
}
