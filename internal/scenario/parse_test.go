package scenario

import (
	"strings"
	"testing"
	"time"
)

// minimal is the smallest valid scenario, for error-case derivation.
const minimal = `scenario t
phase p
duration 100ms
rate 100
`

func TestParseMinimal(t *testing.T) {
	s, err := ParseScenario([]byte(minimal))
	if err != nil {
		t.Fatalf("ParseScenario: %v", err)
	}
	if s.Name != "t" || s.Keys != DefaultKeys || s.Workers != DefaultWorkers || s.Seed != DefaultSeed {
		t.Fatalf("defaults wrong: %+v", s)
	}
	if len(s.Phases) != 1 {
		t.Fatalf("want 1 phase, got %d", len(s.Phases))
	}
	p := s.Phases[0]
	if p.Duration != 100*time.Millisecond || p.Rate.From != 100 || p.Rate.To != 100 {
		t.Fatalf("phase wrong: %+v", p)
	}
	if p.Dist.Kind != DistUniform {
		t.Fatalf("default dist should be uniform, got %v", p.Dist.Kind)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("parsed scenario fails Validate: %v", err)
	}
}

func TestParseFull(t *testing.T) {
	in := `# full-feature scenario
scenario full-1
seed 42
keys 256
workers 8
glk 16 64

phase ramp
  duration 250ms          # trailing comment
  rate ramp 100 2000
  dist zipf 0.9
  hold 50us
  assert p99 <= 20ms
  assert grants == all

phase crowd
  duration 100ms
  rate 500
  dist hot 7 90
  timeout 5ms
  block 7
  mphint 32
  assert timeouts == blocked
  assert grants == 0
  expect transition ticket mutex

phase rotate
  duration 100ms
  rate 500
  dist rotate 8 80 64
  assert issued == all
`
	s, err := ParseScenario([]byte(in))
	if err != nil {
		t.Fatalf("ParseScenario: %v", err)
	}
	if s.Seed != 42 || s.Keys != 256 || s.Workers != 8 || s.GLKSample != 16 || s.GLKAdapt != 64 {
		t.Fatalf("header wrong: %+v", s)
	}
	if len(s.Phases) != 3 {
		t.Fatalf("want 3 phases, got %d", len(s.Phases))
	}
	ramp := s.Phases[0]
	if ramp.Rate != (Rate{From: 100, To: 2000}) || ramp.Dist.Kind != DistZipf || ramp.Dist.Alpha != 0.9 || ramp.Hold != 50*time.Microsecond {
		t.Fatalf("ramp phase wrong: %+v", ramp)
	}
	crowd := s.Phases[1]
	if crowd.Dist != (Dist{Kind: DistHot, Hot: 7, Pct: 90}) || crowd.Block != 7 || crowd.MPHint != 32 || crowd.Timeout != 5*time.Millisecond {
		t.Fatalf("crowd phase wrong: %+v", crowd)
	}
	if len(crowd.Asserts) != 2 || crowd.Asserts[0].Ref != RefBlocked || len(crowd.Expects) != 1 {
		t.Fatalf("crowd lanes wrong: %+v %+v", crowd.Asserts, crowd.Expects)
	}
	rot := s.Phases[2]
	if rot.Dist != (Dist{Kind: DistRotate, Tenants: 8, Pct: 80, RotateOps: 64}) {
		t.Fatalf("rotate dist wrong: %+v", rot.Dist)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "empty input"},
		{"comment only", "# nothing\n", "empty input"},
		{"no scenario first", "seed 1\n", "first directive"},
		{"bad name", "scenario Bad!Name\n", "invalid character"},
		{"no phases", "scenario t\n", "no phases"},
		{"missing duration", "scenario t\nphase p\nrate 10\n", "missing duration"},
		{"missing rate", "scenario t\nphase p\nduration 10ms\n", "missing rate"},
		{"dup scenario", "scenario t\nscenario u\n", "duplicate scenario"},
		{"dup phase name", minimal + "phase p\nduration 10ms\nrate 1\n", "duplicate phase name"},
		{"dup duration", "scenario t\nphase p\nduration 10ms\nduration 20ms\nrate 1\n", "duplicate duration"},
		{"seed after phase", "scenario t\nphase p\nseed 3\n", "must precede"},
		{"zero seed", "scenario t\nseed 0\n", "nonzero"},
		{"zero rate", "scenario t\nphase p\nduration 10ms\nrate 0\n", "out of range"},
		{"huge keys", "scenario t\nkeys 9999999999\n", "out of range"},
		{"neg duration", "scenario t\nphase p\nduration -5ms\nrate 1\n", "not a duration"},
		{"bad dist", "scenario t\nphase p\nduration 10ms\nrate 1\ndist pareto\n", "unknown distribution"},
		{"zipf alpha", "scenario t\nphase p\nduration 10ms\nrate 1\ndist zipf 9\n", "out of range"},
		{"zipf nan", "scenario t\nphase p\nduration 10ms\nrate 1\ndist zipf NaN\n", "out of range"},
		{"hot pct", "scenario t\nphase p\nduration 10ms\nrate 1\ndist hot 1 101\n", "out of range"},
		{"unknown lane", "scenario t\nphase p\nduration 10ms\nrate 1\nassert p42 <= 1ms\n", "unknown lane"},
		{"starved lane", "scenario t\nphase p\nduration 10ms\nrate 1\nassert starved == 0\n", "unknown lane"},
		{"waitphases lane", "scenario t\nphase p\nduration 10ms\nrate 1\nassert waitphases <= 10\n", "unknown lane"},
		{"errors lane", "scenario t\nphase p\nduration 10ms\nrate 1\nassert errors == 0\n", "unknown lane"},
		{"unknown op", "scenario t\nphase p\nduration 10ms\nrate 1\nassert p99 != 1ms\n", "unknown comparison"},
		{"latency count", "scenario t\nphase p\nduration 10ms\nrate 1\nassert p99 <= 12\n", "not a duration"},
		{"count duration", "scenario t\nphase p\nduration 10ms\nrate 1\nassert grants <= 5ms\n", "not a decimal integer"},
		{"bad expect", "scenario t\nphase p\nduration 10ms\nrate 1\nexpect transition\n", "usage: expect"},
		{"unknown directive", "scenario t\nphase p\nduration 10ms\nrate 1\nwibble 3\n", "unknown directive"},
		{"glk not multiple", "scenario t\nglk 16 65\n", "multiple"},
		// Cross-field invariants caught by Validate after parsing.
		{"block no timeout", "scenario t\nphase p\nduration 10ms\nrate 1\nblock 3\n", "requires a timeout"},
		{"hot outside keyspace", "scenario t\nkeys 8\nphase p\nduration 10ms\nrate 1\ndist hot 9 50\n", "outside keyspace"},
		{"block outside keyspace", "scenario t\nkeys 8\nphase p\nduration 10ms\nrate 1\ntimeout 5ms\nblock 9\n", "outside keyspace"},
		{"blocked ref without block", "scenario t\nphase p\nduration 10ms\nrate 1\nassert timeouts == blocked\n", "holds no blocker"},
		{"ops cap", "scenario t\nphase p\nduration 10m\nrate 1000000\n", "cap"},
		{"reads out of range", "scenario t\nphase p\nduration 10ms\nrate 1\nreads 101\n", "out of range"},
		{"negative reads", "scenario t\nphase p\nduration 10ms\nrate 1\nreads -5\n", "not a decimal integer"},
		{"unknown family", "scenario t\nphase p\nduration 10ms\nrate 1\nrwlock rwttas\n", "unknown rwlock family"},
		{"rwlock usage", "scenario t\nphase p\nduration 10ms\nrate 1\nrwlock\n", "usage: rwlock"},
		{"timeout with reads", "scenario t\nphase p\nduration 10ms\nrate 1\nreads 50\ntimeout 5ms\n", "writes block"},
		{"timeout with rwlock", "scenario t\nphase p\nduration 10ms\nrate 1\nrwlock rwphasefair\ntimeout 5ms\n", "writes block"},
		{"side lane exclusive", "scenario t\nphase p\nduration 10ms\nrate 1\nassert wp99 <= 5ms\n", "needs a reader-writer phase"},
		{"side lane count", "scenario t\nphase p\nduration 10ms\nrate 1\nreads 50\nassert rp99 <= 5\n", "not a duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ParseScenario([]byte(tc.in))
			if err == nil {
				t.Fatalf("accepted %q: %+v", tc.in, s)
			}
			pe, ok := err.(*ParseError)
			if !ok {
				t.Fatalf("error is %T, want *ParseError: %v", err, err)
			}
			if !strings.Contains(pe.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", pe.Error(), tc.want)
			}
		})
	}
}

func TestParseRW(t *testing.T) {
	s, err := ParseScenario([]byte("scenario t\nphase svc\nduration 10ms\nrate 100\nreads 80\nassert rp99 <= 5ms\n" +
		"phase fam\nduration 10ms\nrate 100\nrwlock sync.RWMutex\nassert wp99 <= 5ms\nphase excl\nduration 10ms\nrate 100\nreads 0\ntimeout 1ms\n"))
	if err != nil {
		t.Fatal(err)
	}
	svc, fam, excl := s.Phases[0], s.Phases[1], s.Phases[2]
	if svc.Reads != 80 || svc.RWLock != "" || !svc.RW() {
		t.Fatalf("service RW phase wrong: %+v", svc)
	}
	if fam.Reads != 0 || fam.RWLock != "sync.RWMutex" || !fam.RW() {
		t.Fatalf("family phase wrong: %+v", fam)
	}
	// reads 0 is the default: the phase stays exclusive and may time out.
	if excl.RW() || excl.Timeout != time.Millisecond {
		t.Fatalf("reads 0 phase wrong: %+v", excl)
	}
}

// TestWireRigRefusesRW: glsd has no read side, so the wire rig refuses a
// reader-writer plan before it starts a server.
func TestWireRigRefusesRW(t *testing.T) {
	for _, dir := range []string{"reads 50", "rwlock rwphasefair"} {
		s := mustParse(t, "scenario t\nphase p\nduration 10ms\nrate 100\n"+dir+"\n")
		_, err := RunRig(BuildPlan(s, 0), true, nil)
		if err == nil || !strings.Contains(err.Error(), "no read side") {
			t.Fatalf("%s over the wire: got %v, want the no-read-side refusal", dir, err)
		}
	}
}

func TestParseErrorLineNumbers(t *testing.T) {
	in := "scenario t\nphase p\nduration 10ms\nrate 1\nassert p99 <= nope\n"
	_, err := ParseScenario([]byte(in))
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Line != 5 {
		t.Fatalf("want line 5, got %d (%v)", pe.Line, pe)
	}
}

func TestScaled(t *testing.T) {
	s, err := ParseScenario([]byte("scenario t\nphase a\nduration 400ms\nrate 100\nphase b\nduration 80ms\nrate 100\n"))
	if err != nil {
		t.Fatal(err)
	}
	q := s.Scaled(4, 60*time.Millisecond)
	if q.Phases[0].Duration != 100*time.Millisecond {
		t.Fatalf("400ms/4 = %v, want 100ms", q.Phases[0].Duration)
	}
	// 80ms/4 = 20ms floors at 60ms, but never above the original 80ms.
	if q.Phases[1].Duration != 60*time.Millisecond {
		t.Fatalf("80ms/4 floored = %v, want 60ms", q.Phases[1].Duration)
	}
	if s.Phases[0].Duration != 400*time.Millisecond {
		t.Fatalf("Scaled mutated the source scenario: %v", s.Phases[0].Duration)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("scaled scenario invalid: %v", err)
	}
}
