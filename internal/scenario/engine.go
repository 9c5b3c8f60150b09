package scenario

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"gls/internal/harness"
	"gls/internal/sysmon"
	"gls/telemetry"
)

// The engine executes a Plan phase by phase. Pacing is open-loop, on
// harness.Pace: each worker sleeps until an op's planned arrival offset and
// issues it then, catching up (never skipping, never backing off) when an
// acquisition overruns — so a slow service faces the scenario's offered
// rate, not a politely throttled one, and `issued` is always exactly the
// plan's op count. Each grant has two times. The service time runs from
// the Acquire call to the grant; the p50/p95/p99 lanes read it. The
// response time runs from the planned arrival to the grant, so it also
// counts the wait behind an overrun op; it is reported beside the lanes
// (resp_p50_us, resp_p99_us), with `late`, the ops that were already due
// when their worker reached them. A reader-writer phase also splits the
// service times by side, for the rp99 and wp99 lanes; a phase that names
// a family runs on fresh locks of it instead of the driver's workers.
// Phases are barriers: every worker finishes phase k before any worker
// starts phase k+1, because the lanes are per-phase interval measurements
// (telemetry diffs, event windows, latency samples).

// options configures one engine run.
type options struct {
	// Registry, when non-nil, supplies the glslive event stream behind
	// `expect transition`. A plan whose scenario expects transitions fails
	// fast without one. In wire mode, pass the registry the *server's*
	// service feeds — the engine only reads its events, so it works on
	// either side of the wire.
	Registry *telemetry.Registry
	// Monitor, when non-nil, receives `mphint` values phase by phase (0 to
	// clear).
	Monitor *sysmon.Monitor
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
	// Issued = Grants + Timeouts, and equals the plan's op count.
	Issued   uint64 `json:"issued"`
	Grants   uint64 `json:"grants"`
	Timeouts uint64 `json:"timeouts"`
	// Blocked is the planned op count on the phase's held key.
	Blocked uint64 `json:"blocked,omitempty"`
	// P50us/P95us/P99us are the grants' service-time percentiles, from the
	// Acquire call to the grant (in wire mode they include the round trip);
	// the p50/p95/p99 lanes read them.
	P50us float64 `json:"p50_us"`
	P95us float64 `json:"p95_us"`
	P99us float64 `json:"p99_us"`
	// RespP50us/RespP99us are the grants' response-time percentiles, from
	// the planned arrival to the grant, so they also count the wait behind
	// an overrun op. No lane reads them.
	RespP50us float64 `json:"resp_p50_us"`
	RespP99us float64 `json:"resp_p99_us"`
	// Reads counts a reader-writer phase's granted read shares; its other
	// grants are writes. RP99us and WP99us are each side's service-time
	// p99, which the rp99 and wp99 lanes read.
	Reads  uint64  `json:"reads,omitempty"`
	RP99us float64 `json:"rp99_us,omitempty"`
	WP99us float64 `json:"wp99_us,omitempty"`
	// Late counts the ops whose planned arrival had passed when their
	// worker reached them: an earlier op, or the sleep before it, ran late.
	Late uint64 `json:"late"`
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
		cs := conns
		if fam := pp.Phase.RWLock; fam != "" {
			set := newRWSet(fam, s.Keys)
			cs = make([]WorkerConn, s.Workers)
			for w := range cs {
				cs[w] = set
			}
		}
		res, err := runPhase(pp, cs, drv, opt)
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
			sides := ""
			if pp.Phase.RW() {
				sides = fmt.Sprintf(" reads=%-6d rp99=%7.0fµs wp99=%7.0fµs", res.Reads, res.RP99us, res.WP99us)
			}
			fmt.Fprintf(opt.Progress, "phase %-12s offered=%7.0f/s achieved=%7.0f/s issued=%-6d grants=%-6d timeouts=%-5d p50=%6.0fµs p99=%7.0fµs resp p50=%6.0fµs p99=%7.0fµs late=%-5d%s lanes=%d %s\n",
				res.Name, res.Offered, res.Achieved, res.Issued, res.Grants, res.Timeouts, res.P50us, res.P99us, res.RespP50us, res.RespP99us, res.Late, sides, len(res.Lanes), verdict)
		}
	}
	return rep, nil
}

// runPhase executes one phase to completion and evaluates its lanes.
func runPhase(pp *PhasePlan, conns []WorkerConn, drv Driver, opt options) (PhaseResult, error) {
	ph := pp.Phase

	// Phase setup: blocker hold, multiprogramming hint, event window.
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
	var sub *telemetry.Subscriber
	if opt.Registry != nil {
		sub = opt.Registry.Events().Subscribe()
	}

	// Execute: every worker walks its own op list against a shared start.
	at := make([][]time.Duration, len(conns))
	for w, ops := range pp.PerWorker {
		for _, op := range ops {
			at[w] = append(at[w], op.At)
		}
	}
	// A reader-writer phase times each side apart, worker by worker, so
	// no two workers append to one slice.
	rw := ph.RW()
	reads, writes := make([][]time.Duration, len(conns)), make([][]time.Duration, len(conns))
	paced, runErr := harness.Pace(len(conns), 0, at, 0, 0, func(w *harness.Worker, k int) (time.Time, error) {
		conn, op := conns[w.ID], pp.PerWorker[w.ID][k]
		var called time.Time
		if rw {
			called = time.Now()
		}
		ok, err := conn.Acquire(op.Key, op.Read, ph.Timeout)
		if err != nil {
			return time.Time{}, fmt.Errorf("acquire key %d: %w", op.Key, err)
		}
		if !ok {
			return time.Time{}, nil
		}
		granted := time.Now()
		if rw {
			side := writes
			if op.Read {
				side = reads
			}
			side[w.ID] = append(side[w.ID], granted.Sub(called))
		}
		if ph.Hold > 0 {
			holdFor(granted, ph.Hold)
		}
		if err := conn.Release(op.Key, op.Read); err != nil {
			return time.Time{}, fmt.Errorf("release key %d: %w", op.Key, err)
		}
		return granted, nil
	})
	elapsed := paced.Elapsed
	// The plan's nominal duration is a floor: the last arrival lands just
	// under it, but its acquisition may still be in flight at D.
	if rem := ph.Duration - elapsed; rem > 0 {
		time.Sleep(rem)
		elapsed = ph.Duration
	}

	// Teardown before draining the event window, so a held blocker or
	// hint never leaks into the next phase.
	if ph.MPHint != 0 && opt.Monitor != nil {
		opt.Monitor.SetHint(0)
	}
	if release != nil {
		if err := release(); err != nil {
			return PhaseResult{}, fmt.Errorf("release blocker key %d: %w", ph.Block, err)
		}
	}
	var events []*telemetry.Event
	if opt.Registry != nil {
		for {
			batch := sub.Poll(256)
			if len(batch) == 0 {
				break
			}
			events = append(events, batch...)
		}
		sub.Close()
	}

	if runErr != nil {
		return PhaseResult{}, runErr
	}
	grants := uint64(len(paced.Service))
	res := PhaseResult{
		Name:      ph.Name,
		Offered:   ph.Rate.Mean(),
		Achieved:  float64(paced.Issued) / elapsed.Seconds(),
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		Issued:    paced.Issued,
		Grants:    grants,
		Timeouts:  paced.Issued - grants,
		Blocked:   pp.Blocked,
		P50us:     harness.PctUS(paced.Service, 0.50),
		P95us:     harness.PctUS(paced.Service, 0.95),
		P99us:     harness.PctUS(paced.Service, 0.99),
		RespP50us: harness.PctUS(paced.Response, 0.50),
		RespP99us: harness.PctUS(paced.Response, 0.99),
		Late:      paced.Late,
	}
	if rw {
		r, w := slices.Concat(reads...), slices.Concat(writes...)
		slices.Sort(r)
		slices.Sort(w)
		res.Reads = uint64(len(r))
		res.RP99us = harness.PctUS(r, 0.99)
		res.WP99us = harness.PctUS(w, 0.99)
	}
	for _, ev := range events {
		if ev.Kind == telemetry.EventTransition {
			res.Transitions = append(res.Transitions, fmt.Sprintf("%s→%s ×%d", ev.From, ev.To, ev.Count))
		}
	}

	evaluate(&res, pp, events)
	return res, nil
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

// evaluate checks every declared lane against the phase's measurements.
func evaluate(res *PhaseResult, pp *PhasePlan, events []*telemetry.Event) {
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
			us := map[Lane]float64{LaneP50: res.P50us, LaneP95: res.P95us, LaneP99: res.P99us, LaneRP99: res.RP99us, LaneWP99: res.WP99us}[a.Lane]
			got := time.Duration(us * float64(time.Microsecond))
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
