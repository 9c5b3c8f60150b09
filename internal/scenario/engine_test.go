package scenario

import (
	"strings"
	"testing"
	"time"

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

// TestEngineRWCountsBothSides: a reader-writer phase, on the service's
// glkrw keys and on a fixed family, grants every planned op, counts the
// read shares exactly as planned, and times each side apart.
func TestEngineRWCountsBothSides(t *testing.T) {
	s := mustParse(t, `scenario rw
keys 4
workers 4
phase svc
duration 80ms
rate 500
reads 50
hold 200us
assert grants == all
assert rp99 <= 10s
assert wp99 <= 10s
phase fam
duration 80ms
rate 500
reads 50
hold 200us
rwlock rwphasefair
assert grants == all
`)
	plan := BuildPlan(s, 0)
	rep, err := RunRig(plan, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("lanes failed: %v", rep.Failures())
	}
	for i, ph := range rep.Phases {
		var planned uint64
		for _, ops := range plan.Phases[i].PerWorker {
			for _, op := range ops {
				if op.Read {
					planned++
				}
			}
		}
		if ph.Grants != 40 || ph.Reads != planned || planned == 0 || planned == ph.Grants {
			t.Errorf("%s: %d grants, %d of them reads, %d reads planned", ph.Name, ph.Grants, ph.Reads, planned)
		}
		if ph.RP99us <= 0 || ph.WP99us <= 0 {
			t.Errorf("%s: rp99 %.0f µs, wp99 %.0f µs: a side was not timed", ph.Name, ph.RP99us, ph.WP99us)
		}
	}
}

// stallDriver is the in-process driver with one 50 ms stall: the first
// Acquire after the stall offset sleeps before it takes the key.
type stallDriver struct {
	ServiceDriver
	stallAt int
	calls   int
}

func (d *stallDriver) Worker(int) (WorkerConn, error) { return d, nil }

// Acquire implements WorkerConn; the one worker calls it serially.
func (d *stallDriver) Acquire(key uint64, read bool, timeout time.Duration) (bool, error) {
	d.calls++
	if d.calls == d.stallAt {
		time.Sleep(50 * time.Millisecond)
	}
	return serviceConn{d.Svc}.Acquire(key, read, timeout)
}

// Release implements WorkerConn.
func (d *stallDriver) Release(key uint64, read bool) error {
	return serviceConn{d.Svc}.Release(key, read)
}

// TestStallShowsInResponseTime: one worker at 1 k ops/s, one acquisition
// stalled for 50 ms. The ops planned during the stall are issued late, as
// a backlog, each answering in well under a millisecond: their service
// time is short, their response time (from the planned arrival) is not.
func TestStallShowsInResponseTime(t *testing.T) {
	s := mustParse(t, `scenario stall
keys 8
workers 1
phase p
duration 250ms
rate 1000
`)
	drv := &stallDriver{ServiceDriver: ServiceDriver{Svc: gls.New(gls.Options{})}, stallAt: 50}
	rep, err := run(BuildPlan(s, 0), drv, options{})
	if err != nil {
		t.Fatal(err)
	}
	ph := rep.Phases[0]
	if ph.Issued < 200 || ph.Grants != ph.Issued {
		t.Fatalf("counts: %+v", ph)
	}
	t.Logf("issued %d, late %d; service p99 %.0f µs, response p50 %.0f µs, p99 %.0f µs", ph.Issued, ph.Late, ph.P99us, ph.RespP50us, ph.RespP99us)
	if ph.RespP99us < 30_000 || ph.RespP99us < 10*ph.P99us {
		t.Errorf("response p99 %.0f µs against service p99 %.0f µs: want ≥ 30 ms and ≥ 10× service", ph.RespP99us, ph.P99us)
	}
	if ph.Late < 40 {
		t.Errorf("late = %d, want ≥ 40 of the ops planned during the 50 ms stall", ph.Late)
	}
}
