package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The .scn grammar is line-oriented, like the glsd wire protocol: one
// directive per line, fields split on spaces, `#` starts a comment, blank
// lines are ignored. The file opens with scenario-level directives and
// then one or more `phase` blocks; a phase extends to the next `phase`
// directive or end of file.
//
//	scenario NAME            # required, first directive
//	seed N                   # default seed (engine -seed overrides)
//	keys N                   # keyspace 1..N        (default 64)
//	workers N                # worker goroutines    (default 4)
//	glk SAMPLE ADAPT         # GLK sampling/adaptation periods
//
//	phase NAME
//	  duration DUR           # required   (Go duration: 250ms, 2s, ...)
//	  rate N | rate ramp A B # required   (arrivals/s; ramp = linear A→B)
//	  dist uniform           # default
//	  dist zipf ALPHA
//	  dist hot KEY PCT       # PCT% of arrivals hit KEY
//	  dist rotate T PCT OPS  # PCT% into 1 of T tenants, rotating per OPS
//	  hold DUR               # critical-section spin       (default 0)
//	  timeout DUR            # acquisition deadline; 0 blocks (default 0)
//	  block KEY              # engine holds KEY for the phase
//	  mphint N               # sysmon multiprogramming hint
//	  assert LANE OP VALUE   # p50/p95/p99 DUR; counts N | all | blocked
//	  expect transition A B  # glslive must report an A→B adaptation
//
// Indentation is cosmetic. The parser is total: every input yields either
// a validated *Scenario or a *ParseError naming the offending line.

// ParseError reports why an input is not a scenario.
type ParseError struct {
	Line int    // 1-based source line, 0 for file-level errors
	Msg  string // what went wrong
}

// Error implements error.
func (e *ParseError) Error() string {
	if e.Line == 0 {
		return "scenario: " + e.Msg
	}
	return fmt.Sprintf("scenario: line %d: %s", e.Line, e.Msg)
}

// perr builds a *ParseError for line n.
func perr(n int, format string, args ...any) *ParseError {
	return &ParseError{Line: n, Msg: fmt.Sprintf(format, args...)}
}

// Defaults applied when the file omits the directive.
const (
	// DefaultKeys is the keyspace size without a `keys` directive.
	DefaultKeys = 64
	// DefaultWorkers is the worker count without a `workers` directive.
	DefaultWorkers = 4
	// DefaultSeed seeds the plan when neither the file nor the engine
	// options provide one.
	DefaultSeed = 1
)

// ParseScenario parses one .scn file. It never panics: any input either
// returns a Scenario for which Validate() is nil, or a *ParseError with
// the offending 1-based line number.
func ParseScenario(data []byte) (*Scenario, error) {
	s := &Scenario{
		Seed:    DefaultSeed,
		Keys:    DefaultKeys,
		Workers: DefaultWorkers,
	}
	var cur *Phase // nil until the first `phase` directive
	sawScenario := false
	seen := map[string]bool{}      // scenario-level once-only directives
	phaseSeen := map[string]bool{} // per-phase once-only directives

	lines := strings.Split(string(data), "\n")
	if len(lines) > 100_000 {
		return nil, perr(0, "too many lines (%d)", len(lines))
	}
	for i, raw := range lines {
		n := i + 1
		line := raw
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		dir := f[0]
		args := f[1:]

		if !sawScenario {
			if dir != "scenario" {
				return nil, perr(n, "first directive must be `scenario NAME`, got %q", dir)
			}
		}

		switch dir {
		case "scenario":
			if sawScenario {
				return nil, perr(n, "duplicate scenario directive")
			}
			sawScenario = true
			if len(args) != 1 {
				return nil, perr(n, "usage: scenario NAME")
			}
			if err := validName(args[0]); err != nil {
				return nil, perr(n, "%v", err)
			}
			s.Name = args[0]

		case "seed", "keys", "workers":
			if cur != nil {
				return nil, perr(n, "%s must precede the first phase", dir)
			}
			if seen[dir] {
				return nil, perr(n, "duplicate %s directive", dir)
			}
			seen[dir] = true
			if len(args) != 1 {
				return nil, perr(n, "usage: %s N", dir)
			}
			v, err := parseUint(args[0])
			if err != nil {
				return nil, perr(n, "%s: %v", dir, err)
			}
			switch dir {
			case "seed":
				if v == 0 {
					return nil, perr(n, "seed must be nonzero")
				}
				s.Seed = v
			case "keys":
				if v < 1 || v > MaxKeys {
					return nil, perr(n, "keys %d out of range [1, %d]", v, MaxKeys)
				}
				s.Keys = v
			case "workers":
				if v < 1 || v > MaxWorkers {
					return nil, perr(n, "workers %d out of range [1, %d]", v, MaxWorkers)
				}
				s.Workers = int(v)
			}

		case "glk":
			if cur != nil {
				return nil, perr(n, "glk must precede the first phase")
			}
			if seen[dir] {
				return nil, perr(n, "duplicate glk directive")
			}
			seen[dir] = true
			if len(args) != 2 {
				return nil, perr(n, "usage: glk SAMPLE ADAPT")
			}
			sample, err := parseUint(args[0])
			if err != nil {
				return nil, perr(n, "glk sample: %v", err)
			}
			adapt, err := parseUint(args[1])
			if err != nil {
				return nil, perr(n, "glk adapt: %v", err)
			}
			if sample == 0 || sample > 1<<20 || adapt == 0 || adapt > 1<<24 {
				return nil, perr(n, "glk periods out of range")
			}
			if adapt%sample != 0 {
				return nil, perr(n, "glk adapt %d must be a multiple of sample %d", adapt, sample)
			}
			s.GLKSample, s.GLKAdapt = sample, adapt

		case "phase":
			if len(s.Phases) >= MaxPhases {
				return nil, perr(n, "too many phases (max %d)", MaxPhases)
			}
			if cur != nil {
				if err := finishPhase(cur, phaseSeen); err != nil {
					return nil, err
				}
			}
			if len(args) != 1 {
				return nil, perr(n, "usage: phase NAME")
			}
			if err := validName(args[0]); err != nil {
				return nil, perr(n, "%v", err)
			}
			for _, p := range s.Phases {
				if p.Name == args[0] {
					return nil, perr(n, "duplicate phase name %q", args[0])
				}
			}
			cur = &Phase{Name: args[0], Line: n}
			phaseSeen = map[string]bool{}
			s.Phases = append(s.Phases, cur)

		case "duration", "hold", "timeout":
			if cur == nil {
				return nil, perr(n, "%s outside a phase", dir)
			}
			if phaseSeen[dir] {
				return nil, perr(n, "duplicate %s directive", dir)
			}
			phaseSeen[dir] = true
			if len(args) != 1 {
				return nil, perr(n, "usage: %s DUR", dir)
			}
			d, err := parseDuration(args[0])
			if err != nil {
				return nil, perr(n, "%s: %v", dir, err)
			}
			switch dir {
			case "duration":
				if d < MinDuration || d > MaxDuration {
					return nil, perr(n, "duration %v out of range [%v, %v]", d, MinDuration, MaxDuration)
				}
				cur.Duration = d
			case "hold":
				if d < 0 || d > MaxHold {
					return nil, perr(n, "hold %v out of range [0, %v]", d, MaxHold)
				}
				cur.Hold = d
			case "timeout":
				if d < 0 || d > MaxTimeout {
					return nil, perr(n, "timeout %v out of range [0, %v]", d, MaxTimeout)
				}
				cur.Timeout = d
			}

		case "rate":
			if cur == nil {
				return nil, perr(n, "rate outside a phase")
			}
			if phaseSeen[dir] {
				return nil, perr(n, "duplicate rate directive")
			}
			phaseSeen[dir] = true
			switch {
			case len(args) == 1:
				r, err := parseRate(args[0])
				if err != nil {
					return nil, perr(n, "rate: %v", err)
				}
				cur.Rate = Rate{From: r, To: r}
			case len(args) == 3 && args[0] == "ramp":
				from, err := parseRate(args[1])
				if err != nil {
					return nil, perr(n, "rate ramp from: %v", err)
				}
				to, err := parseRate(args[2])
				if err != nil {
					return nil, perr(n, "rate ramp to: %v", err)
				}
				cur.Rate = Rate{From: from, To: to}
			default:
				return nil, perr(n, "usage: rate N | rate ramp FROM TO")
			}

		case "dist":
			if cur == nil {
				return nil, perr(n, "dist outside a phase")
			}
			if phaseSeen[dir] {
				return nil, perr(n, "duplicate dist directive")
			}
			phaseSeen[dir] = true
			d, err := parseDist(args)
			if err != nil {
				return nil, perr(n, "dist: %v", err)
			}
			cur.Dist = d

		case "block", "mphint":
			if cur == nil {
				return nil, perr(n, "%s outside a phase", dir)
			}
			if phaseSeen[dir] {
				return nil, perr(n, "duplicate %s directive", dir)
			}
			phaseSeen[dir] = true
			if len(args) != 1 {
				return nil, perr(n, "usage: %s N", dir)
			}
			v, err := parseUint(args[0])
			if err != nil {
				return nil, perr(n, "%s: %v", dir, err)
			}
			switch dir {
			case "block":
				if v == 0 {
					return nil, perr(n, "block key must be nonzero")
				}
				cur.Block = v
			case "mphint":
				if v > MaxRate {
					return nil, perr(n, "mphint %d out of range [0, %d]", v, MaxRate)
				}
				cur.MPHint = int(v)
			}

		case "assert":
			if cur == nil {
				return nil, perr(n, "assert outside a phase")
			}
			if len(cur.Asserts)+len(cur.Expects) >= MaxAsserts {
				return nil, perr(n, "too many assertions (max %d)", MaxAsserts)
			}
			a, err := parseAssert(args, n)
			if err != nil {
				return nil, err
			}
			cur.Asserts = append(cur.Asserts, a)

		case "expect":
			if cur == nil {
				return nil, perr(n, "expect outside a phase")
			}
			if len(cur.Asserts)+len(cur.Expects) >= MaxAsserts {
				return nil, perr(n, "too many assertions (max %d)", MaxAsserts)
			}
			if len(args) != 3 || args[0] != "transition" {
				return nil, perr(n, "usage: expect transition FROM TO")
			}
			if err := validModeName(args[1]); err != nil {
				return nil, perr(n, "%v", err)
			}
			if err := validModeName(args[2]); err != nil {
				return nil, perr(n, "%v", err)
			}
			cur.Expects = append(cur.Expects, ExpectTransition{From: args[1], To: args[2], Line: n})

		default:
			return nil, perr(n, "unknown directive %q", dir)
		}
	}

	if !sawScenario {
		return nil, perr(0, "empty input: want `scenario NAME`")
	}
	if cur == nil {
		return nil, perr(0, "scenario %q has no phases", s.Name)
	}
	if err := finishPhase(cur, phaseSeen); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		// Cross-field invariants (block vs timeout, hot key vs keyspace,
		// blocked refs) surface here with the phase's source line.
		return nil, perr(phaseLine(s, err), "%v", err)
	}
	return s, nil
}

// finishPhase checks the required per-phase directives at block end.
func finishPhase(p *Phase, seen map[string]bool) *ParseError {
	if !seen["duration"] {
		return perr(p.Line, "phase %q missing duration", p.Name)
	}
	if !seen["rate"] {
		return perr(p.Line, "phase %q missing rate", p.Name)
	}
	return nil
}

// phaseLine best-effort maps a validation error back to a phase's source
// line by matching the `phase %q` prefix Validate uses.
func phaseLine(s *Scenario, err error) int {
	msg := err.Error()
	for _, p := range s.Phases {
		if strings.HasPrefix(msg, fmt.Sprintf("phase %q", p.Name)) {
			return p.Line
		}
	}
	return 0
}

// parseDist parses the `dist` argument forms.
func parseDist(args []string) (Dist, error) {
	if len(args) == 0 {
		return Dist{}, fmt.Errorf("usage: dist uniform | zipf ALPHA | hot KEY PCT | rotate TENANTS PCT OPS")
	}
	switch args[0] {
	case "uniform":
		if len(args) != 1 {
			return Dist{}, fmt.Errorf("dist uniform takes no arguments")
		}
		return Dist{Kind: DistUniform}, nil
	case "zipf":
		if len(args) != 2 {
			return Dist{}, fmt.Errorf("usage: dist zipf ALPHA")
		}
		alpha, err := strconv.ParseFloat(args[1], 64)
		if err != nil || alpha != alpha /* NaN */ || alpha < 0 || alpha > 5 {
			return Dist{}, fmt.Errorf("zipf alpha %q out of range [0, 5]", args[1])
		}
		return Dist{Kind: DistZipf, Alpha: alpha}, nil
	case "hot":
		if len(args) != 3 {
			return Dist{}, fmt.Errorf("usage: dist hot KEY PCT")
		}
		key, err := parseUint(args[1])
		if err != nil || key == 0 {
			return Dist{}, fmt.Errorf("hot key %q must be a nonzero integer", args[1])
		}
		pctv, err := parseUint(args[2])
		if err != nil || pctv > 100 {
			return Dist{}, fmt.Errorf("hot pct %q out of range [0, 100]", args[2])
		}
		return Dist{Kind: DistHot, Hot: key, Pct: int(pctv)}, nil
	case "rotate":
		if len(args) != 4 {
			return Dist{}, fmt.Errorf("usage: dist rotate TENANTS PCT OPS")
		}
		tenants, err := parseUint(args[1])
		if err != nil || tenants < 1 || tenants > MaxKeys {
			return Dist{}, fmt.Errorf("rotate tenants %q out of range", args[1])
		}
		pctv, err := parseUint(args[2])
		if err != nil || pctv > 100 {
			return Dist{}, fmt.Errorf("rotate pct %q out of range [0, 100]", args[2])
		}
		ops, err := parseUint(args[3])
		if err != nil || ops < 1 || ops > MaxOps {
			return Dist{}, fmt.Errorf("rotate ops %q out of range [1, %d]", args[3], MaxOps)
		}
		return Dist{Kind: DistRotate, Tenants: int(tenants), Pct: int(pctv), RotateOps: int(ops)}, nil
	default:
		return Dist{}, fmt.Errorf("unknown distribution %q", args[0])
	}
}

// parseAssert parses `assert LANE OP VALUE`.
func parseAssert(args []string, n int) (Assertion, *ParseError) {
	if len(args) != 3 {
		return Assertion{}, perr(n, "usage: assert LANE OP VALUE")
	}
	a := Assertion{Lane: Lane(args[0]), Op: CmpOp(args[1]), Line: n}
	if !validLane(a.Lane) {
		return Assertion{}, perr(n, "unknown lane %q (want p50/p95/p99/issued/grants/timeouts/errors/starved/waitphases)", args[0])
	}
	if !validOp(a.Op) {
		return Assertion{}, perr(n, "unknown comparison %q (want <= < == >= >)", args[1])
	}
	if latencyLane(a.Lane) {
		d, err := parseDuration(args[2])
		if err != nil {
			return Assertion{}, perr(n, "%s bound: %v", a.Lane, err)
		}
		if d <= 0 || d > MaxDuration {
			return Assertion{}, perr(n, "%s bound %v out of range (0, %v]", a.Lane, d, MaxDuration)
		}
		a.Dur = d
		return a, nil
	}
	switch args[2] {
	case "all":
		a.Ref = RefAll
	case "blocked":
		a.Ref = RefBlocked
	default:
		v, err := parseUint(args[2])
		if err != nil {
			return Assertion{}, perr(n, "%s bound: %v", a.Lane, err)
		}
		a.Count = v
	}
	return a, nil
}

// parseUint parses a plain decimal uint64 — no signs, no hex, no
// underscores, matching the wire parser's strictness.
func parseUint(s string) (uint64, error) {
	if s == "" || s[0] == '+' || s[0] == '-' {
		return 0, fmt.Errorf("%q is not a decimal integer", s)
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not a decimal integer", s)
	}
	return v, nil
}

// parseRate parses an arrivals-per-second value into [1, MaxRate].
func parseRate(s string) (float64, error) {
	v, err := parseUint(s)
	if err != nil {
		return 0, err
	}
	if v < 1 || v > MaxRate {
		return 0, fmt.Errorf("rate %d out of range [1, %d]", v, MaxRate)
	}
	return float64(v), nil
}

// parseDuration parses a Go duration and rejects the negative and absurd.
func parseDuration(s string) (time.Duration, error) {
	if s == "" || s[0] == '+' || s[0] == '-' {
		return 0, fmt.Errorf("%q is not a duration", s)
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("%q is not a duration (want 250ms, 2s, ...)", s)
	}
	if d < 0 || d > 24*time.Hour {
		return 0, fmt.Errorf("duration %v out of range", d)
	}
	return d, nil
}
