package scenario

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"gls/telemetry"
)

// The engine executes a Plan phase by phase. Pacing is open-loop: each
// worker sleeps until an op's planned arrival offset and issues it then,
// catching up (never skipping, never backing off) when an acquisition
// overruns — so a slow service faces the scenario's offered rate, not a
// politely throttled one, and `issued` is always exactly the plan's op
// count. Phases are barriers: every worker finishes phase k before any
// worker starts phase k+1, because the lanes are per-phase interval
// measurements (telemetry diffs, event windows, latency samples).

// Hinter is the slice of sysmon.Monitor the engine needs for `mphint`
// phases: assert a multiprogramming hint, 0 to clear.
type Hinter interface {
	// SetHint sets the external multiprogramming hint.
	SetHint(n int)
}

// options configures one engine run.
type options struct {
	// Registry, when non-nil, supplies the telemetry-derived lanes
	// (starved, waitphases) and the glslive event stream behind `expect
	// transition`. A plan whose scenario uses those lanes fails fast
	// without one. In wire mode, pass the registry the *server's* service
	// feeds — the engine only reads snapshots and events, so it works on
	// either side of the wire.
	Registry *telemetry.Registry
	// Monitor, when non-nil, receives `mphint` values phase by phase.
	Monitor Hinter
	// Progress, when non-nil, receives one human line per phase.
	Progress io.Writer
}

// LaneResult is one evaluated assertion.
type LaneResult struct {
	// Assertion is the lane as written ("p99 <= 20ms").
	Assertion string `json:"assertion"`
	// Got is the measured value, rendered.
	Got string `json:"got"`
	// Pass is the verdict.
	Pass bool `json:"pass"`
	// Line is the assertion's source line in the .scn file.
	Line int `json:"line"`
}

// PhaseResult is one executed phase's measurements and verdicts.
type PhaseResult struct {
	// Name is the phase name.
	Name string `json:"name"`
	// Offered is the planned mean arrival rate (ops/s); Achieved is the
	// issued rate actually sustained over the phase's wall time.
	Offered  float64 `json:"offered_ops_per_sec"`
	Achieved float64 `json:"achieved_ops_per_sec"`
	// ElapsedMS is the phase's wall time.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Issued = Grants + Timeouts + Errors, and equals the plan's op count.
	Issued   uint64 `json:"issued"`
	Grants   uint64 `json:"grants"`
	Timeouts uint64 `json:"timeouts"`
	Errors   uint64 `json:"errors"`
	// Blocked is the planned op count on the phase's held key.
	Blocked uint64 `json:"blocked,omitempty"`
	// P50us/P95us/P99us are engine-measured grant-latency percentiles
	// (in wire mode they include the round trip).
	P50us float64 `json:"p50_us"`
	P95us float64 `json:"p95_us"`
	P99us float64 `json:"p99_us"`
	// Starved and WaitPhases are the phase's fairness-lane deltas (zero
	// without a registry).
	Starved    uint64 `json:"starved"`
	WaitPhases uint64 `json:"waitphases"`
	// Transitions lists the adaptation edges observed in the phase via
	// glslive, as "from→to ×count".
	Transitions []string `json:"transitions,omitempty"`
	// Lanes are the evaluated assertions, in declaration order.
	Lanes []LaneResult `json:"lanes,omitempty"`
	// Pass is true when every lane passed.
	Pass bool `json:"pass"`
}

// Report is one scenario run's full result.
type Report struct {
	// Scenario and Driver identify the run.
	Scenario string `json:"scenario"`
	Driver   string `json:"driver"`
	// Seed is the plan's resolved seed.
	Seed uint64 `json:"seed"`
	// GOMAXPROCS records the host parallelism the lanes were measured
	// under (see the 1-CPU caveat, DESIGN.md §15).
	GOMAXPROCS int `json:"gomaxprocs"`
	// Phases holds per-phase results in execution order.
	Phases []PhaseResult `json:"phases"`
	// Pass is true when every phase passed.
	Pass bool `json:"pass"`
}

// Failures returns the failed lanes as "phase: assertion (got X)" lines.
func (r *Report) Failures() []string {
	var out []string
	for _, ph := range r.Phases {
		for _, l := range ph.Lanes {
			if !l.Pass {
				out = append(out, fmt.Sprintf("%s: %s (got %s)", ph.Name, l.Assertion, l.Got))
			}
		}
	}
	return out
}

// run executes the plan against drv and evaluates every declared lane.
// The returned error covers engine and driver failures (a failed lane is
// not an error — it is a false Pass in the report, so callers can render
// every verdict before deciding the exit code).
func run(p *Plan, drv Driver, opt options) (*Report, error) {
	s := p.Scenario
	if opt.Registry == nil {
		for _, ph := range s.Phases {
			if len(ph.Expects) > 0 {
				return nil, fmt.Errorf("scenario %s: phase %s expects transitions but the engine has no telemetry registry", s.Name, ph.Name)
			}
		}
	}
	conns := make([]WorkerConn, s.Workers)
	for w := range conns {
		c, err := drv.Worker(w)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: worker %d: %w", s.Name, w, err)
		}
		conns[w] = c
	}
	rep := &Report{
		Scenario:   s.Name,
		Driver:     drv.Name(),
		Seed:       p.Seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Pass:       true,
	}
	for _, pp := range p.Phases {
		res, err := runPhase(pp, conns, drv, opt)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: phase %s: %w", s.Name, pp.Phase.Name, err)
		}
		rep.Phases = append(rep.Phases, res)
		if !res.Pass {
			rep.Pass = false
		}
		if opt.Progress != nil {
			verdict := "ok"
			if !res.Pass {
				verdict = "FAIL"
			}
			fmt.Fprintf(opt.Progress, "phase %-12s offered=%7.0f/s achieved=%7.0f/s issued=%-6d grants=%-6d timeouts=%-5d p50=%6.0fµs p99=%7.0fµs lanes=%d %s\n",
				res.Name, res.Offered, res.Achieved, res.Issued, res.Grants, res.Timeouts, res.P50us, res.P99us, len(res.Lanes), verdict)
		}
	}
	return rep, nil
}

// workerTally is one worker's phase outcome.
type workerTally struct {
	grants   uint64
	timeouts uint64
	lats     []time.Duration
	err      error
}

// runPhase executes one phase to completion and evaluates its lanes.
func runPhase(pp *PhasePlan, conns []WorkerConn, drv Driver, opt options) (PhaseResult, error) {
	ph := pp.Phase

	// Phase setup: blocker hold, multiprogramming hint, telemetry window.
	var release func() error
	if ph.Block != 0 {
		r, err := drv.Hold(ph.Block)
		if err != nil {
			return PhaseResult{}, fmt.Errorf("hold blocker key %d: %w", ph.Block, err)
		}
		release = r
	}
	if ph.MPHint != 0 && opt.Monitor != nil {
		opt.Monitor.SetHint(ph.MPHint)
	}
	var before *telemetry.Snapshot
	var sub *telemetry.Subscriber
	if opt.Registry != nil {
		before = opt.Registry.Snapshot()
		sub = opt.Registry.Events().Subscribe()
	}

	// Execute: every worker paces its own op list against a shared start.
	tallies := make([]workerTally, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	for w := range conns {
		if len(pp.PerWorker[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(&tallies[w], conns[w], pp.PerWorker[w], ph, start)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// The plan's nominal duration is a floor: the last arrival lands just
	// under it, but its acquisition may still be in flight at D.
	if rem := ph.Duration - elapsed; rem > 0 {
		time.Sleep(rem)
		elapsed = ph.Duration
	}

	// Teardown before measuring the telemetry window, so a held blocker
	// or hint never leaks into the next phase.
	if ph.MPHint != 0 && opt.Monitor != nil {
		opt.Monitor.SetHint(0)
	}
	if release != nil {
		if err := release(); err != nil {
			return PhaseResult{}, fmt.Errorf("release blocker key %d: %w", ph.Block, err)
		}
	}
	var lanes telemetry.LaneSet
	var events []*telemetry.Event
	if opt.Registry != nil {
		lanes = telemetry.ExtractLanes(opt.Registry.Snapshot().Diff(before))
		for {
			batch := sub.Poll(256)
			if len(batch) == 0 {
				break
			}
			events = append(events, batch...)
		}
		sub.Close()
	}

	// Merge the tallies.
	res := PhaseResult{
		Name:       ph.Name,
		Offered:    ph.Rate.Mean(),
		ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
		Blocked:    pp.Blocked,
		Starved:    lanes.RStarved,
		WaitPhases: lanes.RWaitPhases,
	}
	var all []time.Duration
	for w := range tallies {
		t := &tallies[w]
		if t.err != nil {
			return PhaseResult{}, fmt.Errorf("worker %d: %w", w, t.err)
		}
		res.Grants += t.grants
		res.Timeouts += t.timeouts
		all = append(all, t.lats...)
	}
	res.Issued = res.Grants + res.Timeouts + res.Errors
	res.Achieved = float64(res.Issued) / elapsed.Seconds()
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	res.P50us = PctUS(all, 0.50)
	res.P95us = PctUS(all, 0.95)
	res.P99us = PctUS(all, 0.99)
	for _, ev := range events {
		if ev.Kind == telemetry.EventTransition {
			res.Transitions = append(res.Transitions, fmt.Sprintf("%s→%s ×%d", ev.From, ev.To, ev.Count))
		}
	}

	evaluate(&res, pp, all, events)
	return res, nil
}

// runWorker paces one worker's op list open-loop against the shared
// phase start time.
func runWorker(t *workerTally, conn WorkerConn, ops []Op, ph *Phase, start time.Time) {
	t.lats = make([]time.Duration, 0, len(ops))
	for _, op := range ops {
		if wait := op.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		t0 := time.Now()
		ok, err := conn.Acquire(op.Key, ph.Timeout)
		if err != nil {
			t.err = fmt.Errorf("acquire key %d: %w", op.Key, err)
			return
		}
		if !ok {
			t.timeouts++
			continue
		}
		t.lats = append(t.lats, time.Since(t0))
		if ph.Hold > 0 {
			holdFor(time.Now(), ph.Hold)
		}
		if err := conn.Release(op.Key); err != nil {
			t.err = fmt.Errorf("release key %d: %w", op.Key, err)
			return
		}
		t.grants++
	}
}

// holdFor occupies the critical section for d past t0: short holds spin
// (the paper's locks busy-wait; sub-millisecond sleeps oversleep badly),
// longer holds sleep so a 1-CPU host isn't starved by the holder.
func holdFor(t0 time.Time, d time.Duration) {
	if d >= time.Millisecond {
		time.Sleep(d)
		return
	}
	for time.Since(t0) < d {
		runtime.Gosched()
	}
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

// evaluate checks every declared lane against the phase's measurements.
func evaluate(res *PhaseResult, pp *PhasePlan, sorted []time.Duration, events []*telemetry.Event) {
	ph := pp.Phase
	res.Pass = true
	record := func(a string, line int, got string, pass bool) {
		res.Lanes = append(res.Lanes, LaneResult{Assertion: a, Got: got, Pass: pass, Line: line})
		if !pass {
			res.Pass = false
		}
	}
	for _, a := range ph.Asserts {
		if latencyLane(a.Lane) {
			var got time.Duration
			switch a.Lane {
			case LaneP50:
				got = time.Duration(res.P50us * float64(time.Microsecond))
			case LaneP95:
				got = time.Duration(res.P95us * float64(time.Microsecond))
			case LaneP99:
				got = time.Duration(res.P99us * float64(time.Microsecond))
			}
			record(a.String(), a.Line, got.String(), cmpU(uint64(got), a.Op, uint64(a.Dur)))
			continue
		}
		var got uint64
		switch a.Lane {
		case LaneIssued:
			got = res.Issued
		case LaneGrants:
			got = res.Grants
		case LaneTimeouts:
			got = res.Timeouts
		case LaneErrors:
			got = res.Errors
		case LaneStarved:
			got = res.Starved
		case LaneWaitPhases:
			got = res.WaitPhases
		}
		want := a.Count
		switch a.Ref {
		case RefAll:
			want = res.Issued
		case RefBlocked:
			want = pp.Blocked
		}
		record(a.String(), a.Line, fmt.Sprintf("%d", got), cmpU(got, a.Op, want))
	}
	for _, e := range ph.Expects {
		seen := false
		for _, ev := range events {
			if ev.Kind != telemetry.EventTransition {
				continue
			}
			if (e.From == "*" || ev.From == e.From) && (e.To == "*" || ev.To == e.To) {
				seen = true
				break
			}
		}
		got := "no matching transition"
		if seen {
			got = "seen"
		}
		record("expect "+e.String(), e.Line, got, seen)
	}
}

// cmpU applies a comparison operator to uint64 lane values.
func cmpU(got uint64, op CmpOp, want uint64) bool {
	switch op {
	case CmpLE:
		return got <= want
	case CmpLT:
		return got < want
	case CmpEQ:
		return got == want
	case CmpGE:
		return got >= want
	case CmpGT:
		return got > want
	default:
		return false
	}
}
