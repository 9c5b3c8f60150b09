// Package scenario implements glscn, the trace-driven scenario engine
// behind `glsbench -scenario`: committed `.scn` text files describe a
// sequence of workload phases — arrival-rate schedules (constant rates,
// diurnal ramps), key-choice distributions (uniform, zipf sweeps, flash
// crowds onto a hot key, rotating tenant skew), per-acquisition deadlines,
// engine-held blocker keys, forced multiprogramming hints, and read shares
// on reader-writer locks (the service's or a fixed family's) — and the
// engine replays them open-loop against a lock-service driver (the
// in-process gls.Service or a glsd server over the wire).
//
// Two properties separate this from the fixed-mix benchmark families:
//
//   - Determinism. Every random choice (the key, and in a phase with
//     reads whether the op reads) comes from per-worker splitmix64 streams
//     seeded from (seed, phase, worker), and the whole op sequence — keys,
//     sides, counts, scheduled arrival offsets — is computed as a pure
//     plan before the first op is issued. The same seed and scenario file
//     therefore replay the identical op sequence, byte for byte in the
//     replay log, no matter how the scheduler interleaves the actual
//     execution.
//
//   - Assertion lanes. Each phase declares what must hold — p99 grant
//     latency ceilings, exact timeout-lane counts, expected adaptation
//     arcs checked against glslive transition events — so a scenario is
//     a regression *test* over tail behavior, not just an ops/s meter.
//
// See DESIGN.md §15 for the file format and the engine's pacing rules.
package scenario

import (
	"fmt"
	"time"
)

// Format bounds. The parser is total: any input either yields a Scenario
// satisfying these bounds or a *ParseError — never a panic, never a
// half-validated scenario (FuzzParseScenario pins this).
const (
	// MaxKeys bounds the keyspace size.
	MaxKeys = 1 << 20
	// MaxWorkers bounds the worker-goroutine count.
	MaxWorkers = 1024
	// MaxRate bounds arrivals per second (aggregate over workers).
	MaxRate = 1_000_000
	// MaxPhases bounds the phase count.
	MaxPhases = 64
	// MaxAsserts bounds assertions per phase (expects included).
	MaxAsserts = 32
	// MaxDuration bounds one phase's nominal length.
	MaxDuration = 10 * time.Minute
	// MinDuration floors one phase's nominal length.
	MinDuration = time.Millisecond
	// MaxHold bounds the critical-section busy-spin.
	MaxHold = 100 * time.Millisecond
	// MaxTimeout bounds the per-acquisition deadline.
	MaxTimeout = 10 * time.Second
	// MaxOps bounds one phase's planned op count (rate × duration); the
	// plan is materialized in memory, so a scenario cannot ask for more
	// ops than a bench host can hold.
	MaxOps = 4 << 20
	// MaxName bounds scenario and phase name length.
	MaxName = 64
)

// DistKind selects a phase's key-choice distribution.
type DistKind uint8

// The distributions. Keys are 1-based: a scenario with `keys N` locks the
// keys 1..N (key 0 is GLS's invalid NULL).
const (
	// DistUniform draws keys uniformly over [1, keys].
	DistUniform DistKind = iota
	// DistZipf draws keys zipf(alpha)-skewed over [1, keys]; phases with
	// different alphas form the zipf-parameter sweep.
	DistZipf
	// DistHot sends Pct% of arrivals to the single key Hot and the rest
	// uniformly over the keyspace — the flash-crowd shape.
	DistHot
	// DistRotate divides the keyspace into Tenants contiguous slices and
	// sends Pct% of arrivals into the currently-hot tenant, rotating to
	// the next tenant every RotateOps global arrivals — the tenant-skew
	// rotation shape. Rotation is by op index, not wall time, so the skew
	// schedule is part of the deterministic plan.
	DistRotate
)

// String names the distribution for reports and the replay log header.
func (k DistKind) String() string {
	switch k {
	case DistUniform:
		return "uniform"
	case DistZipf:
		return "zipf"
	case DistHot:
		return "hot"
	case DistRotate:
		return "rotate"
	default:
		return "unknown"
	}
}

// Dist is a phase's parsed key distribution.
type Dist struct {
	Kind DistKind
	// Alpha is the zipf exponent (DistZipf).
	Alpha float64
	// Hot is the flash-crowd key (DistHot), in [1, keys].
	Hot uint64
	// Pct is the hot fraction in percent (DistHot, DistRotate).
	Pct int
	// Tenants and RotateOps configure DistRotate.
	Tenants   int
	RotateOps int
}

// Lane identifies an assertable per-phase observable.
type Lane string

// The assertion lanes. The latency lanes compare durations; the count
// lanes compare exact engine counters.
const (
	// LaneP50, LaneP95, LaneP99: service-time percentiles over the
	// phase's granted acquisitions, from the Acquire call to the grant
	// (so in wire mode they include the round trip).
	LaneP50 Lane = "p50"
	LaneP95 Lane = "p95"
	LaneP99 Lane = "p99"
	// LaneRP99 and LaneWP99 split LaneP99 by side in a reader-writer
	// phase: the read shares' service-time p99 and the writes'. wp99 is
	// the lane that fails when readers bypass a planned writer.
	LaneRP99 Lane = "rp99"
	LaneWP99 Lane = "wp99"
	// LaneIssued is the number of ops the phase issued (deterministic:
	// it equals the plan's op count).
	LaneIssued Lane = "issued"
	// LaneGrants counts acquisitions that were granted.
	LaneGrants Lane = "grants"
	// LaneTimeouts counts bounded acquisitions that hit their deadline —
	// the timeout lane, exact by construction (every issued op is exactly
	// one grant or one timeout: a driver error fails the run).
	LaneTimeouts Lane = "timeouts"
)

// latencyLane reports whether the lane's values are durations.
func latencyLane(l Lane) bool {
	return l == LaneP50 || l == LaneP95 || l == LaneP99 || sideLane(l)
}

// sideLane reports whether the lane reads one side of a reader-writer
// phase.
func sideLane(l Lane) bool { return l == LaneRP99 || l == LaneWP99 }

// validLane reports whether l is an assertable lane.
func validLane(l Lane) bool {
	switch l {
	case LaneP50, LaneP95, LaneP99, LaneRP99, LaneWP99, LaneIssued, LaneGrants, LaneTimeouts:
		return true
	}
	return false
}

// CmpOp is an assertion comparison.
type CmpOp string

// The comparison operators.
const (
	CmpLE CmpOp = "<="
	CmpLT CmpOp = "<"
	CmpEQ CmpOp = "=="
	CmpGE CmpOp = ">="
	CmpGT CmpOp = ">"
)

// validOp reports whether op is a known comparison.
func validOp(op CmpOp) bool {
	switch op {
	case CmpLE, CmpLT, CmpEQ, CmpGE, CmpGT:
		return true
	}
	return false
}

// RefValue marks a count assertion whose right-hand side is a plan-derived
// reference rather than a literal.
type RefValue uint8

// The reference values.
const (
	// RefNone: the assertion compares against the literal Count/Dur.
	RefNone RefValue = iota
	// RefAll resolves to the phase's issued op count — `assert grants ==
	// all` says every issued op was granted.
	RefAll
	// RefBlocked resolves to the number of issued ops that targeted the
	// phase's blocked key — `assert timeouts == blocked` is the exact
	// timeout-lane count for a phase whose blocker the engine holds.
	RefBlocked
)

// Assertion is one declared per-phase bound.
type Assertion struct {
	Lane Lane
	Op   CmpOp
	// Dur is the bound for latency lanes.
	Dur time.Duration
	// Count is the bound for count lanes with Ref == RefNone.
	Count uint64
	// Ref substitutes a plan-derived count for Count (count lanes only).
	Ref RefValue
	// Line is the source line, for failure messages.
	Line int
}

// String renders the assertion as written.
func (a Assertion) String() string {
	rhs := ""
	switch {
	case latencyLane(a.Lane):
		rhs = a.Dur.String()
	case a.Ref == RefAll:
		rhs = "all"
	case a.Ref == RefBlocked:
		rhs = "blocked"
	default:
		rhs = fmt.Sprintf("%d", a.Count)
	}
	return fmt.Sprintf("%s %s %s", a.Lane, a.Op, rhs)
}

// ExpectTransition is a declared adaptation-arc edge: the phase must see
// at least one glslive transition event From→To ("*" matches any mode or
// family name on that side).
type ExpectTransition struct {
	From, To string
	Line     int
}

// String renders the expectation as written.
func (e ExpectTransition) String() string {
	return fmt.Sprintf("transition %s -> %s", e.From, e.To)
}

// Rate is a phase's arrival-rate schedule: constant when From == To, a
// linear ramp over the phase otherwise (the diurnal shape).
type Rate struct {
	From, To float64
}

// Mean is the schedule's average rate, which with the phase duration
// fixes the planned op count.
func (r Rate) Mean() float64 { return (r.From + r.To) / 2 }

// String renders the schedule for reports.
func (r Rate) String() string {
	if r.From == r.To {
		return fmt.Sprintf("%.0f/s", r.From)
	}
	return fmt.Sprintf("%.0f→%.0f/s", r.From, r.To)
}

// Phase is one parsed workload segment.
type Phase struct {
	Name     string
	Duration time.Duration
	Rate     Rate
	Dist     Dist
	// Hold is the critical-section busy-spin per granted op.
	Hold time.Duration
	// Timeout bounds each acquisition; 0 blocks until granted.
	Timeout time.Duration
	// Block, if nonzero, is a key the engine itself holds for the whole
	// phase, so every bounded acquisition of it times out.
	Block uint64
	// MPHint, if nonzero, is the sysmon multiprogramming hint asserted
	// for the phase's duration (the forced-multiprogramming burst).
	MPHint int
	// Reads is the share of the phase's ops, in percent, that are read
	// shares (RLock/RUnlock); the rest are writes.
	Reads int
	// RWLock, if set, names the fixed reader-writer family the phase runs
	// on, a fresh lock for each key. Without it a phase with reads runs on
	// the service's adaptive glkrw keys.
	RWLock string

	Asserts []Assertion
	Expects []ExpectTransition

	// Line is the `phase` directive's source line.
	Line int
}

// RW reports whether the phase runs on reader-writer locks: it has reads
// or names a family.
func (p *Phase) RW() bool { return p.Reads > 0 || p.RWLock != "" }

// Scenario is one parsed .scn file.
type Scenario struct {
	Name string
	// Seed is the file's default seed; BuildPlan's seed, when nonzero,
	// overrides it.
	Seed uint64
	// Keys is the keyspace size: the scenario locks keys 1..Keys.
	Keys uint64
	// Workers is the number of open-loop worker goroutines.
	Workers int
	// GLKSample/GLKAdapt, when nonzero, ask the runner to configure the
	// service's GLK locks with these sampling/adaptation periods, so a
	// short CI phase can still cross an adaptation boundary.
	GLKSample uint64
	GLKAdapt  uint64

	Phases []*Phase
}

// Validate re-checks every invariant the parser enforces. ParseScenario
// only returns scenarios for which Validate is nil; it exists so built-up
// or deserialized scenarios get the same totality guarantee, and so the
// fuzzer can cross-check the parser against one canonical rule set.
func (s *Scenario) Validate() error {
	if s == nil {
		return fmt.Errorf("scenario: nil")
	}
	if err := validName(s.Name); err != nil {
		return fmt.Errorf("scenario name: %w", err)
	}
	if s.Keys < 1 || s.Keys > MaxKeys {
		return fmt.Errorf("keys %d out of range [1, %d]", s.Keys, MaxKeys)
	}
	if s.Workers < 1 || s.Workers > MaxWorkers {
		return fmt.Errorf("workers %d out of range [1, %d]", s.Workers, MaxWorkers)
	}
	if (s.GLKSample == 0) != (s.GLKAdapt == 0) {
		return fmt.Errorf("glk sample/adapt must be set together")
	}
	if s.GLKSample > 0 {
		if s.GLKSample > 1<<20 || s.GLKAdapt > 1<<24 {
			return fmt.Errorf("glk periods too large")
		}
		if s.GLKAdapt%s.GLKSample != 0 {
			return fmt.Errorf("glk adapt period %d is not a multiple of sample period %d", s.GLKAdapt, s.GLKSample)
		}
	}
	if len(s.Phases) < 1 || len(s.Phases) > MaxPhases {
		return fmt.Errorf("%d phases out of range [1, %d]", len(s.Phases), MaxPhases)
	}
	for _, p := range s.Phases {
		if err := s.validatePhase(p); err != nil {
			return fmt.Errorf("phase %q: %w", p.Name, err)
		}
	}
	return nil
}

// validatePhase checks one phase against the scenario's keyspace.
func (s *Scenario) validatePhase(p *Phase) error {
	if err := validName(p.Name); err != nil {
		return err
	}
	if p.Duration < MinDuration || p.Duration > MaxDuration {
		return fmt.Errorf("duration %v out of range [%v, %v]", p.Duration, MinDuration, MaxDuration)
	}
	if p.Rate.From < 1 || p.Rate.From > MaxRate || p.Rate.To < 1 || p.Rate.To > MaxRate {
		return fmt.Errorf("rate %v out of range [1, %d]", p.Rate, MaxRate)
	}
	if ops := p.Rate.Mean() * p.Duration.Seconds(); ops > MaxOps {
		return fmt.Errorf("rate × duration plans %.0f ops, above the %d cap", ops, MaxOps)
	}
	if p.Hold < 0 || p.Hold > MaxHold {
		return fmt.Errorf("hold %v out of range [0, %v]", p.Hold, MaxHold)
	}
	if p.Timeout < 0 || p.Timeout > MaxTimeout {
		return fmt.Errorf("timeout %v out of range [0, %v]", p.Timeout, MaxTimeout)
	}
	if p.Block > s.Keys {
		return fmt.Errorf("block key %d outside keyspace [1, %d]", p.Block, s.Keys)
	}
	if p.Block != 0 && p.Timeout == 0 {
		// A blocking acquisition of the engine-held key would never
		// return and the phase would never end.
		return fmt.Errorf("block requires a timeout (a blocking acquisition of the held key cannot return)")
	}
	if p.MPHint < 0 || p.MPHint > MaxRate {
		return fmt.Errorf("mphint %d out of range [0, %d]", p.MPHint, MaxRate)
	}
	if p.Reads < 0 || p.Reads > 100 {
		return fmt.Errorf("reads %d out of range [0, 100]", p.Reads)
	}
	if p.RWLock != "" && rwFamilies[p.RWLock] == nil {
		return fmt.Errorf("unknown rwlock family %q (want rwstriped, rwphasefair, rwwritepref or sync.RWMutex)", p.RWLock)
	}
	if p.RW() && p.Timeout != 0 {
		// A bounded write polls the lock's try instead of queueing, so it
		// would measure another admission than Lock's.
		return fmt.Errorf("timeout in a reader-writer phase: its writes block")
	}
	switch p.Dist.Kind {
	case DistUniform:
	case DistZipf:
		if p.Dist.Alpha < 0 || p.Dist.Alpha > 5 {
			return fmt.Errorf("zipf alpha %v out of range [0, 5]", p.Dist.Alpha)
		}
	case DistHot:
		if p.Dist.Hot < 1 || p.Dist.Hot > s.Keys {
			return fmt.Errorf("hot key %d outside keyspace [1, %d]", p.Dist.Hot, s.Keys)
		}
		if p.Dist.Pct < 0 || p.Dist.Pct > 100 {
			return fmt.Errorf("hot pct %d out of range [0, 100]", p.Dist.Pct)
		}
	case DistRotate:
		if p.Dist.Tenants < 1 || uint64(p.Dist.Tenants) > s.Keys {
			return fmt.Errorf("rotate tenants %d out of range [1, keys]", p.Dist.Tenants)
		}
		if p.Dist.Pct < 0 || p.Dist.Pct > 100 {
			return fmt.Errorf("rotate pct %d out of range [0, 100]", p.Dist.Pct)
		}
		if p.Dist.RotateOps < 1 || p.Dist.RotateOps > MaxOps {
			return fmt.Errorf("rotate ops %d out of range [1, %d]", p.Dist.RotateOps, MaxOps)
		}
	default:
		return fmt.Errorf("unknown distribution kind %d", p.Dist.Kind)
	}
	if len(p.Asserts)+len(p.Expects) > MaxAsserts {
		return fmt.Errorf("%d assertions exceed the %d cap", len(p.Asserts)+len(p.Expects), MaxAsserts)
	}
	for _, a := range p.Asserts {
		if !validLane(a.Lane) {
			return fmt.Errorf("unknown lane %q", a.Lane)
		}
		if !validOp(a.Op) {
			return fmt.Errorf("unknown comparison %q", a.Op)
		}
		if latencyLane(a.Lane) {
			if a.Ref != RefNone {
				return fmt.Errorf("latency lane %s cannot compare against %v", a.Lane, a)
			}
			if a.Dur <= 0 || a.Dur > MaxDuration {
				return fmt.Errorf("latency bound %v out of range (0, %v]", a.Dur, MaxDuration)
			}
		}
		if sideLane(a.Lane) && !p.RW() {
			return fmt.Errorf("lane %s needs a reader-writer phase (reads or rwlock)", a.Lane)
		}
		if a.Ref == RefBlocked && p.Block == 0 {
			return fmt.Errorf("assertion %q references blocked but the phase holds no blocker", a)
		}
	}
	for _, e := range p.Expects {
		if err := validModeName(e.From); err != nil {
			return err
		}
		if err := validModeName(e.To); err != nil {
			return err
		}
	}
	return nil
}

// Scaled returns a deep copy of s with every phase's duration divided by
// div and floored at floor (but never raised above the original) — the
// `-quick` transform. Rates are untouched, so op counts shrink with the
// durations; the result is still a pure function of (s, div, floor), so
// quick runs replay deterministically too.
func (s *Scenario) Scaled(div int, floor time.Duration) *Scenario {
	if div < 1 {
		div = 1
	}
	out := *s
	out.Phases = make([]*Phase, len(s.Phases))
	for i, ph := range s.Phases {
		c := *ph
		d := c.Duration / time.Duration(div)
		if d < floor {
			d = floor
		}
		if d > c.Duration {
			d = c.Duration
		}
		if d < MinDuration {
			d = MinDuration
		}
		c.Duration = d
		out.Phases[i] = &c
	}
	return &out
}

// validName enforces the scenario/phase name grammar: 1..MaxName of
// [a-z0-9_-], so names embed cleanly in reports, JSON, and file paths.
func validName(n string) error {
	if n == "" || len(n) > MaxName {
		return fmt.Errorf("name %q must be 1..%d characters", n, MaxName)
	}
	for i := 0; i < len(n); i++ {
		c := n[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' || c == '_' {
			continue
		}
		return fmt.Errorf("name %q: invalid character %q (use a-z, 0-9, -, _)", n, c)
	}
	return nil
}

// validModeName checks a transition-edge side: "*" or a plausible
// mode/family token. The engine matches edges textually against glslive
// events, so any token is semantically fine; the bound keeps fuzzing and
// typos from committing unreadable expectations.
func validModeName(n string) error {
	if n == "*" {
		return nil
	}
	return validName(n)
}
