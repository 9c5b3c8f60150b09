//go:build unix

package server

import (
	"syscall"
	"testing"
	"time"
)

// processCPU is the process's user + system CPU time so far.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestParkedWaitersUseNoCPU: a waiter behind a held key is asleep on its
// wake channel, not probing the lock. 32 of them parked for 300 ms behind
// one lease must cost the process next to nothing (spinning waiters burn
// every CPU the box has: ≈ 2 CPU-seconds per second on 2 CPUs). Not
// t.Parallel: it measures the whole process.
func TestParkedWaitersUseNoCPU(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	holder := dialT(t, addr)
	holder.send("trylock 7 60000\r\n")
	holder.expect("GRANTED 0x7")
	queueBehind(t, addr, 7, 32) // connection set-up and the spin phases are over

	before := processCPU(t)
	time.Sleep(300 * time.Millisecond)
	if used := processCPU(t) - before; used > 100*time.Millisecond {
		t.Fatalf("32 parked waiters used %v of CPU in 300ms, want < 100ms", used)
	}
}
