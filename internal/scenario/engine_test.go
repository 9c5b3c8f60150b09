package scenario

import (
	"strings"
	"testing"

	"gls"
	"gls/telemetry"
)

// runService parses, plans, and runs a scenario against a fresh
// in-process service with a sample-everything registry.
func runService(t *testing.T, in string) *Report {
	t.Helper()
	s := mustParse(t, in)
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	svc := gls.New(gls.Options{Telemetry: reg})
	rep, err := run(BuildPlan(s, 0), &ServiceDriver{Svc: svc}, options{Registry: reg})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestEngineIssuesExactly(t *testing.T) {
	rep := runService(t, `scenario exact
keys 16
workers 3
phase p
duration 80ms
rate 500
assert issued == 40
assert grants == all
assert timeouts == 0
`)
	if !rep.Pass {
		t.Fatalf("lanes failed: %v", rep.Failures())
	}
	ph := rep.Phases[0]
	// Open-loop with catch-up: issued is the plan's op count, always.
	if ph.Issued != 40 || ph.Grants != 40 || ph.Timeouts != 0 {
		t.Fatalf("counts: %+v", ph)
	}
	if ph.P99us <= 0 {
		t.Fatalf("no latency measured: %+v", ph)
	}
}

func TestEngineBlockerTimeoutsExact(t *testing.T) {
	rep := runService(t, `scenario blocked
keys 8
workers 2
phase held
duration 60ms
rate 200
dist hot 3 100
timeout 2ms
block 3
assert timeouts == blocked
assert timeouts == all
assert grants == 0
`)
	if !rep.Pass {
		t.Fatalf("lanes failed: %v", rep.Failures())
	}
	ph := rep.Phases[0]
	if ph.Timeouts != ph.Issued || ph.Grants != 0 || ph.Blocked != ph.Issued {
		t.Fatalf("blocked phase counts: %+v", ph)
	}
}

func TestEngineFailingLaneReported(t *testing.T) {
	rep := runService(t, `scenario failing
keys 8
workers 2
phase p
duration 60ms
rate 200
assert timeouts > 5
assert grants == all
`)
	if rep.Pass {
		t.Fatal("impossible lane (timeouts > 5 with no deadline) passed")
	}
	fails := rep.Failures()
	if len(fails) != 1 || !strings.Contains(fails[0], "timeouts > 5") {
		t.Fatalf("Failures: %v", fails)
	}
	// The passing lane must still be recorded as passed.
	var passed, failed int
	for _, l := range rep.Phases[0].Lanes {
		if l.Pass {
			passed++
		} else {
			failed++
		}
	}
	if passed != 1 || failed != 1 {
		t.Fatalf("lane verdicts: %d passed, %d failed", passed, failed)
	}
}

func TestEngineExpectWithoutRegistry(t *testing.T) {
	s := mustParse(t, `scenario noreg
phase p
duration 10ms
rate 100
expect transition ticket mutex
`)
	svc := gls.New(gls.Options{})
	_, err := run(BuildPlan(s, 0), &ServiceDriver{Svc: svc}, options{})
	if err == nil || !strings.Contains(err.Error(), "no telemetry registry") {
		t.Fatalf("want registry-required error, got %v", err)
	}
}

func TestEnginePhaseBarrier(t *testing.T) {
	// Two phases against one service: the second phase's lanes only see
	// the second phase's interval (the snapshot diff), so the grants lane
	// of a 20-op phase is 20 even after a 40-op first phase.
	rep := runService(t, `scenario barrier
keys 8
workers 2
phase a
duration 80ms
rate 500
assert grants == 40
phase b
duration 80ms
rate 250
assert grants == 20
`)
	if !rep.Pass {
		t.Fatalf("lanes failed: %v", rep.Failures())
	}
}
