package harness

import (
	"fmt"
	"slices"
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
	start   time.Time      // when the gate opened
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
	r.start = time.Now()
	close(r.gate)
	return func() Result {
		r.phase.Store(stopped)
		r.done.Wait()
		res := Result{Elapsed: time.Since(r.start), PerThread: make([]uint64, n)}
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

// Paced is one open-loop run: the ops Pace's workers issued, and two times
// for each op that was served.
type Paced struct {
	// Issued counts every op the schedules held: none is skipped.
	Issued uint64
	// Late counts the ops whose arrival had passed when their worker
	// reached them: an earlier op, or the sleep before it, ran past it.
	Late uint64
	// Elapsed runs from the gate to the last worker's return.
	Elapsed time.Duration
	// Service holds each served op's service time, from the call; Response
	// its response time, from its intended arrival, which also counts the
	// wait behind an overrun op. Both end when body says it was served, and
	// both are sorted.
	Service, Response []time.Duration
}

// Pace runs body open-loop on n workers. Worker i's k-th op is due at[i][k]
// after the gate or, for a nil at, at (k + i/n)·every (every > 0) while that
// is before window, so the workers' arrivals are spread evenly over each
// interval. A worker sleeps only until its next op is due and issues an op
// already due at once, so an op that overruns delays its worker's later ops
// and the delay shows in their response times. body(w, k) issues op k and
// returns when it was served, or the zero time if it was not (a timeout, a
// refusal); what it does after that is not timed. A body error ends its
// worker's schedule, and Pace returns the lowest worker's.
func Pace(n int, seed uint64, at [][]time.Duration, every, window time.Duration, body func(w *Worker, k int) (time.Time, error)) (Paced, error) {
	runs := make([]Paced, n)
	errs := make([]error, n)
	// The stop comes at once: the first Next is only the gate, and the
	// schedule, not the stop, ends a worker's walk.
	elapsed := Start(n, seed, func(w *Worker) {
		w.Next()
		var p Paced
		for k := 0; ; k++ {
			var due time.Duration
			if at != nil {
				if k == len(at[w.ID]) {
					break
				}
				due = at[w.ID][k]
			} else if due = arrival(w.ID, k, n, every); due >= window {
				break
			}
			dueAt := w.run.start.Add(due)
			called := time.Now()
			if wait := dueAt.Sub(called); wait > 0 {
				time.Sleep(wait)
				called = time.Now()
			} else if k > 0 {
				p.Late++
			}
			p.Issued++
			served, err := body(w, k)
			if err != nil {
				errs[w.ID] = err
				break
			}
			if !served.IsZero() {
				p.Service = append(p.Service, served.Sub(called))
				p.Response = append(p.Response, served.Sub(dueAt))
			}
		}
		runs[w.ID] = p
	})().Elapsed
	all := Paced{Elapsed: elapsed}
	for i, p := range runs {
		if errs[i] != nil {
			return Paced{}, fmt.Errorf("worker %d: %w", i, errs[i])
		}
		all.Issued += p.Issued
		all.Late += p.Late
		all.Service = append(all.Service, p.Service...)
		all.Response = append(all.Response, p.Response...)
	}
	slices.Sort(all.Service)
	slices.Sort(all.Response)
	return all, nil
}

// arrival is worker i's k-th due time on n workers' fixed-interval schedule.
func arrival(i, k, n int, every time.Duration) time.Duration {
	return time.Duration(k)*every + time.Duration(i)*every/time.Duration(n)
}

// PctUS reports the q-quantile of a sorted sample in microseconds: the
// exact sample at index q·(n−1), no interpolation.
func PctUS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Microsecond)
}
