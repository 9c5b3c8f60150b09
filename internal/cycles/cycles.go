// Package cycles provides a calibrated, cycle-denominated busy-wait.
//
// The paper parameterises every microbenchmark by critical-section length in
// CPU cycles (e.g. 1024-cycle critical sections in Figures 8 and 9, and the
// per-phase durations of Figure 10). Portable Go cannot read the TSC, so this
// package calibrates a tight arithmetic loop against the monotonic clock once
// per process and converts "cycles" to loop iterations assuming a nominal
// clock frequency (2.5 GHz, the paper's Haswell machine).
//
// Absolute accuracy is irrelevant for the reproduction: what the figures need
// is that a 2048-cycle section busy-works twice as long as a 1024-cycle one.
package cycles

import (
	"sync"
	"sync/atomic"
	"time"
)

// nominalGHz is the nominal clock used to convert cycles to nanoseconds.
// It matches the Haswell platform of the paper (E5-2680 v3, 2.5 GHz).
const nominalGHz = 2.5

var (
	calibrateOnce sync.Once
	itersPerNano  atomic.Uint64 // fixed-point: iterations per nanosecond << 16

	// sink defeats dead-code elimination of the calibration/wait loops.
	sink atomic.Uint64
)

const fixedShift = 16

// FrequencyGHz reports the nominal frequency used for conversions.
func FrequencyGHz() float64 { return nominalGHz }

// Calibrate measures the spin-loop rate. It is called automatically by the
// first Wait, but benchmarks call it up front so the measurement does not
// land inside a timed region.
func Calibrate() {
	calibrateOnce.Do(func() {
		best := uint64(0)
		// Several short rounds; keep the fastest (least-preempted) one.
		for round := 0; round < 5; round++ {
			const iters = 2_000_000
			start := time.Now()
			spin(iters)
			elapsed := time.Since(start)
			if elapsed <= 0 {
				continue
			}
			rate := (iters << fixedShift) / uint64(elapsed.Nanoseconds())
			if rate > best {
				best = rate
			}
		}
		if best == 0 {
			best = 1 << fixedShift // pessimistic fallback: 1 iter/ns
		}
		itersPerNano.Store(best)
	})
}

// spin runs n dependent integer operations. The accumulator is published to
// a package-level atomic so the compiler cannot remove the loop.
func spin(n uint64) {
	acc := sink.Load()
	for i := uint64(0); i < n; i++ {
		acc = acc*2862933555777941757 + 3037000493 // splitmix-style LCG step
	}
	sink.Store(acc)
}

// Wait busy-spins for approximately n CPU cycles at the nominal frequency.
// It yields to no one: callers that hold no lock and wait long should prefer
// time.Sleep. Critical-section bodies in the benchmarks use Wait.
func Wait(n uint64) {
	if n == 0 {
		return
	}
	Calibrate()
	spin(itersForCycles(n))
}

// itersForCycles converts a cycle count to calibrated loop iterations.
func itersForCycles(n uint64) uint64 {
	nanos := float64(n) / FrequencyGHz()
	rate := itersPerNano.Load()
	iters := uint64(nanos) * rate >> fixedShift
	// Sub-nanosecond requests still execute at least one iteration so Wait(1)
	// is distinguishable from Wait(0) in the instruction stream.
	if iters == 0 {
		iters = 1
	}
	return iters
}

// FromDuration converts wall time to cycles at the nominal frequency.
func FromDuration(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64(float64(d.Nanoseconds()) * FrequencyGHz())
}
