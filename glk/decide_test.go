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
	mon := sysmon.New(sysmon.Options{DisableProbes: true})
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
		// The band's edges, pinned at the paper's constants: leaving ticket
		// takes more than 3, leaving mcs less than 2, mutex 1.5 or more.
		{"up edge minus stays ticket", 2.99, false, ModeTicket, ModeTicket},
		{"up edge stays ticket", 3.0, false, ModeTicket, ModeTicket},
		{"up edge plus switches to mcs", 3.01, false, ModeTicket, ModeMCS},
		{"down edge minus leaves mcs", 1.99, false, ModeMCS, ModeTicket},
		{"down edge stays mcs", 2.0, false, ModeMCS, ModeMCS},
		{"down edge plus stays mcs", 2.01, false, ModeMCS, ModeMCS},
		{"multiprog floor minus stays ticket", 1.49, true, ModeTicket, ModeTicket},
		{"multiprog floor -> mutex", 1.5, true, ModeTicket, ModeMutex},
		{"multiprog floor plus -> mutex", 1.51, true, ModeTicket, ModeMutex},
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
		if cur != ModeMutex && avg >= downThreshold && avg <= upThreshold && got != cur {
			return false // hysteresis band violated
		}
		if avg > upThreshold && got == ModeTicket {
			return false
		}
		if avg < downThreshold && got == ModeMCS {
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
