package glk

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"gls/internal/sysmon"
)

// mkLockWithEMA builds a lock whose queue EMA reads avg, against a monitor
// with the given multiprogramming state.
func mkLockWithEMA(avg float64, multiprog bool) *Lock {
	mon := sysmon.New(sysmon.Options{Interval: time.Millisecond, DisableProbes: true})
	if multiprog {
		mon.Start()
		mon.SetHint(runtime.GOMAXPROCS(0) + 64)
		deadline := time.Now().Add(10 * time.Second)
		for !mon.Multiprogrammed() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		mon.Stop() // flag freezes at its last value
	}
	l := New(&Config{Monitor: mon})
	l.state().queueEMA.Add(avg) // first Add seeds the EMA exactly
	return l
}

// TestDecideTable pins the full decision table of paper §3.
func TestDecideTable(t *testing.T) {
	cases := []struct {
		name      string
		avg       float64
		multiprog bool
		cur       Mode
		want      Mode
	}{
		{"low queue stays ticket", 1.0, false, ModeTicket, ModeTicket},
		{"band from ticket keeps ticket", 2.5, false, ModeTicket, ModeTicket},
		{"above up switches to mcs", 3.5, false, ModeTicket, ModeMCS},
		{"band from mcs keeps mcs", 2.5, false, ModeMCS, ModeMCS},
		{"below down leaves mcs", 1.5, false, ModeMCS, ModeTicket},
		{"mutex without multiprog, low queue -> ticket", 1.0, false, ModeMutex, ModeTicket},
		{"mutex without multiprog, high queue -> mcs", 5.0, false, ModeMutex, ModeMCS},
		{"mutex without multiprog, band -> mcs", 2.5, false, ModeMutex, ModeMCS},
		{"multiprog with queuing -> mutex", 2.0, true, ModeTicket, ModeMutex},
		{"multiprog from mcs -> mutex", 5.0, true, ModeMCS, ModeMutex},
		{"multiprog near-zero queue stays ticket", 1.0, true, ModeTicket, ModeTicket},
		{"multiprog near-zero queue leaves mcs for ticket", 1.0, true, ModeMCS, ModeTicket},
		{"multiprog keeps mutex sticky", 1.0, true, ModeMutex, ModeMutex},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := mkLockWithEMA(c.avg, c.multiprog)
			got, _ := l.decide(c.cur)
			if got != c.want {
				t.Fatalf("decide(avg=%.1f multiprog=%v cur=%v) = %v, want %v",
					c.avg, c.multiprog, c.cur, got, c.want)
			}
		})
	}
}

// TestDecideUnseededNeverTransitions: with no samples there is no basis to
// move.
func TestDecideUnseededNeverTransitions(t *testing.T) {
	mon := sysmon.New(sysmon.Options{DisableProbes: true})
	l := New(&Config{Monitor: mon})
	l.state() // decide is reached from a sampling boundary that has one
	for _, cur := range []Mode{ModeTicket, ModeMCS, ModeMutex} {
		if got, _ := l.decide(cur); got != cur {
			t.Fatalf("unseeded decide(%v) = %v", cur, got)
		}
	}
}

// TestDecideKeepsModeForFree: a lock told to stay where it is gets no reason
// string — an uncontended ticket lock comes through decide every adaptation
// period, and formatting "avg queue 1.00 < 2.00" for nobody cost glsmark's
// inproc_spread 400 KB/s of garbage (it showed the day the multiprogramming
// flag stopped being falsely up, whose branch returns early).
func TestDecideKeepsModeForFree(t *testing.T) {
	mon := sysmon.New(sysmon.Options{DisableProbes: true})
	for _, c := range []struct {
		cur Mode
		avg float64
	}{{ModeTicket, 1}, {ModeMCS, 8}, {ModeTicket, 2.5}, {ModeMCS, 2.5}} {
		l := New(&Config{Monitor: mon})
		l.state().queueEMA.Add(c.avg)
		if got, reason := l.decide(c.cur); got != c.cur || reason != "" {
			t.Fatalf("decide(%v) at avg %.1f = %v, %q", c.cur, c.avg, got, reason)
		}
		if n := testing.AllocsPerRun(100, func() { l.decide(c.cur) }); n != 0 {
			t.Fatalf("decide(%v) at avg %.1f allocates %.0f times to keep its mode", c.cur, c.avg, n)
		}
	}
}

// TestDecideProperties checks the invariants of the decision function for
// arbitrary EMA values without multiprogramming:
//
//  1. totality: the result is always a valid mode;
//  2. hysteresis: inside the band [down, up], ticket and mcs never change;
//  3. monotone direction: above up never yields ticket, below down never
//     yields mcs.
func TestDecideProperties(t *testing.T) {
	mon := sysmon.New(sysmon.Options{DisableProbes: true})
	f := func(avgRaw uint16, curRaw uint8) bool {
		avg := float64(avgRaw) / 1000 // 0 .. 65.5
		cur := []Mode{ModeTicket, ModeMCS, ModeMutex}[int(curRaw)%3]
		l := New(&Config{Monitor: mon})
		l.state().queueEMA.Add(avg)
		got, _ := l.decide(cur)
		switch got {
		case ModeTicket, ModeMCS, ModeMutex:
		default:
			return false
		}
		down := float64(l.set.downThreshold)
		up := float64(l.set.upThreshold)
		if cur != ModeMutex && avg >= down && avg <= up && got != cur {
			return false // hysteresis band violated
		}
		if avg > up && got == ModeTicket {
			return false
		}
		if avg < down && got == ModeMCS {
			return false
		}
		if got == ModeMutex {
			return false // mutex requires multiprogramming
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestLowLevelQueueSampling exercises the paper-faithful measurement path.
func TestLowLevelQueueSampling(t *testing.T) {
	mon := sysmon.New(sysmon.Options{DisableProbes: true})
	l := New(&Config{Monitor: mon, SamplePeriod: 2, AdaptPeriod: 8, SampleLowLevelQueues: true})
	for i := 0; i < 64; i++ {
		l.Lock()
		l.Unlock()
	}
	st := l.Stats()
	// Single-threaded ticket mode: every sample reads exactly 1 (the
	// holder), via the ticket counter distance.
	if st.QueueEMA < 0.99 || st.QueueEMA > 1.01 {
		t.Fatalf("low-level QueueEMA = %.2f, want 1.0", st.QueueEMA)
	}
	if st.QueueTotal != 32 {
		t.Fatalf("QueueTotal = %d, want 32 (64 CS / period 2)", st.QueueTotal)
	}
}

// TestLowLevelSamplingMutualExclusion stresses the ablation path under
// concurrency and adaptation.
func TestLowLevelSamplingMutualExclusion(t *testing.T) {
	mon := sysmon.New(sysmon.Options{DisableProbes: true})
	l := New(&Config{Monitor: mon, SamplePeriod: 4, AdaptPeriod: 16, SampleLowLevelQueues: true})
	counter := 0
	done := make(chan struct{}, 6)
	for g := 0; g < 6; g++ {
		go func() {
			for i := 0; i < 2000; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 6; i++ {
		<-done
	}
	if counter != 12000 {
		t.Fatalf("counter = %d, want 12000", counter)
	}
}
