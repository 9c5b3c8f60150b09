package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"gls/internal/pad"
	"gls/internal/xrand"
)

// defaultWindow is Drive's measurement window when none is given.
const defaultWindow = 100 * time.Millisecond

// A run's phases, in order: workers set up and gather at the gate, loop,
// and leave at the next Next once stopped.
const (
	gated uint32 = iota
	running
	stopped
)

// Worker is one closed-loop goroutine's own state. It fills one cache line,
// so a worker's RNG and count share no line with another worker's; a body's
// per-operation state belongs in its own locals or here, not in a closure
// cell shared with other workers.
type Worker struct {
	// ID numbers the workers of one Start from 0.
	ID int
	// Rng is the worker's random stream, seeded seed + ID·0x9e3779b9.
	Rng xrand.SplitMix64

	ops     uint64 // iterations Next has let through
	run     *run
	arrived bool                         // the worker has reached the gate
	_       [pad.CacheLineSize - 33]byte // the 33 bytes above; TestWorkerLayout checks the sum
}

// run is the state one Start's workers share: written only at the gate and
// at the stop.
type run struct {
	phase   atomic.Uint32
	gate    chan struct{}
	arrived sync.WaitGroup // workers at the gate, or whose body returned first
	done    sync.WaitGroup // workers whose body returned
}

// Next reports whether the worker should run one more iteration. The first
// call waits at the start gate, so what a body does before it is set-up,
// outside the measured window; after the stop every call returns false.
func (w *Worker) Next() bool {
	if w.run.phase.Load() != running {
		return w.atGate()
	}
	w.ops++
	return true
}

// atGate is Next off its fast path: before the gate opens, and after the
// stop. The phase cannot leave gated before this worker has arrived.
func (w *Worker) atGate() bool {
	if w.run.phase.Load() != gated {
		return false
	}
	w.arrived = true
	w.run.arrived.Done()
	<-w.run.gate
	return w.Next()
}

// Start runs body on n workers and returns once each has reached its first
// Next (or returned): the gate then opens and the window starts. stop ends
// the window, makes every worker's next Next return false, waits for all
// of them to return and reports what they counted.
func Start(n int, seed uint64, body func(*Worker)) (stop func() Result) {
	r := &run{gate: make(chan struct{})}
	ws := make([]*Worker, n)
	r.arrived.Add(n)
	r.done.Add(n)
	for i := range ws {
		w := &Worker{ID: i, Rng: xrand.Seeded(seed + uint64(i)*0x9e3779b9), run: r}
		ws[i] = w
		go func() {
			defer r.done.Done()
			body(w)
			if !w.arrived {
				r.arrived.Done()
			}
		}()
	}
	r.arrived.Wait()
	r.phase.Store(running)
	start := time.Now()
	close(r.gate)
	return func() Result {
		r.phase.Store(stopped)
		r.done.Wait()
		res := Result{Elapsed: time.Since(start), PerThread: make([]uint64, n)}
		for i, w := range ws {
			res.PerThread[i] = w.ops
			res.Ops += w.ops
		}
		return res
	}
}

// Drive runs body on n workers for d of wall time (100 ms if d is not
// positive): Start, sleep, stop.
func Drive(n int, d time.Duration, seed uint64, body func(*Worker)) Result {
	if d <= 0 {
		d = defaultWindow
	}
	stop := Start(n, seed, body)
	time.Sleep(d)
	return stop()
}
