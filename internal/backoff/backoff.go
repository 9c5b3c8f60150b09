// Package backoff implements the waiting policies used by the spinlocks.
//
// The paper's locks busy-wait with a CPU pause loop; on the Go runtime a
// waiter that never yields can starve the lock holder outright when runnable
// goroutines outnumber GOMAXPROCS (and always does on a single-P runtime).
// Every spin policy here therefore escalates to runtime.Gosched, which keeps
// the algorithms live on any GOMAXPROCS while preserving the paper's
// spin-first behaviour when there are spare hardware contexts.
package backoff

import (
	"runtime"
	"sync/atomic"

	"gls/internal/xrand"
)

// pauseUnit is the length of the smallest busy pause, in dependent ALU
// operations. It stands in for a handful of x86 PAUSE instructions.
const pauseUnit = 32

// maxPauseRounds bounds exponential pause growth: 2^maxPauseRounds units.
const maxPauseRounds = 8

// spinRoundsBeforeYield is how many escalating pause rounds a waiter burns
// before it starts yielding its context between probes.
const spinRoundsBeforeYield = 6

// Pause busy-spins for n pause units without yielding.
func Pause(n uint32) {
	acc := pauseSink.Load()
	for i := uint32(0); i < n*pauseUnit; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	pauseSink.Store(acc)
}

// pauseSink defeats dead-code elimination of Pause loops. The value is never
// read for meaning; it is atomic only so concurrent pauses stay within the
// memory model.
var pauseSink atomic.Uint64

// Jitter bounds for the yield phase, in pause units. The fixed-length
// escalation rounds end at 2^maxPauseRounds units; once waiters are in the
// yield phase they would otherwise probe in near-lockstep — every waiter
// wakes from Gosched, burns the same 256 units, and hits the lock word in
// the same window, turning each release into a thundering probe-herd. The
// decorrelated jitter spreads the probes across [jitterFloor, jitterCeil].
const (
	jitterFloor = 1 << (maxPauseRounds - 2) // 64 units
	jitterCeil  = 1 << (maxPauseRounds + 2) // 1024 units
)

// jitterSeq hands out distinct seeds to spinners entering the yield phase.
// The increment is the splitmix64 golden gamma, so consecutive seeds land
// far apart in the generator's sequence. One shared add per contended
// acquisition that outlasts the escalation rounds — the uncontended and
// short-wait paths never touch it.
var jitterSeq atomic.Uint64

// JitterNext advances one decorrelated-jitter step (Exponential Backoff
// and Jitter, the "decorrelated" variant): the next pause is uniform in
// [jitterFloor, min(jitterCeil, 3*prev)]. Pure, so tests can pin the
// bounds and the spread without racing a live spinner.
func JitterNext(rng *xrand.SplitMix64, prev uint32) uint32 {
	hi := 3 * prev
	if hi > jitterCeil {
		hi = jitterCeil
	}
	if hi <= jitterFloor {
		return jitterFloor
	}
	return jitterFloor + uint32(rng.Uintn(uint64(hi-jitterFloor+1)))
}

// Spinner is a per-acquisition wait policy: escalating busy pauses first,
// then yield-and-pause rounds with decorrelated jitter. The zero value is
// ready to use.
type Spinner struct {
	round      uint32
	pause      uint32 // current yield-phase pause length (0 = not seeded yet)
	singleProc bool
	probed     bool
	rng        xrand.SplitMix64
}

// Spin performs one wait step and returns. Callers invoke it between probes
// of the lock word.
func (s *Spinner) Spin() {
	if !s.probed {
		s.probed = true
		s.singleProc = runtime.GOMAXPROCS(0) == 1
	}
	if s.singleProc {
		// Spinning cannot possibly help: the holder needs this P to run.
		runtime.Gosched()
		return
	}
	if s.round < spinRoundsBeforeYield {
		Pause(1 << min(s.round, maxPauseRounds))
		s.round++
		return
	}
	runtime.Gosched()
	if s.pause == 0 {
		s.rng = xrand.Seeded(jitterSeq.Add(0x9e3779b97f4a7c15))
		s.pause = 1 << maxPauseRounds
	}
	s.pause = JitterNext(&s.rng, s.pause)
	Pause(s.pause)
	if s.round < 1<<30 {
		s.round++
	}
}

// Yield unconditionally gives up the processor once. Blocking locks use it
// during their pre-park spin phase.
func Yield() { runtime.Gosched() }
