package gls

import (
	"os"
	"strings"
	"sync"
	"testing"

	"gls/locks"
	"gls/telemetry"
)

// newTelemetryService returns a service feeding a fresh high-fidelity
// registry.
func newTelemetryService(t *testing.T, opts Options) (*Service, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	opts.Telemetry = reg
	s := newTestService(t, opts)
	return s, reg
}

func TestServiceFeedsTelemetry(t *testing.T) {
	s, reg := newTelemetryService(t, Options{})
	for i := 0; i < 25; i++ {
		s.Lock(1)
		s.Unlock(1)
	}
	s.LockWith(locks.MCS, 2)
	s.UnlockWith(locks.MCS, 2)

	if s.Telemetry() != reg {
		t.Fatal("Telemetry() did not return the supplied registry")
	}
	snap := reg.Snapshot()
	glkLock := snap.Lock(1)
	if glkLock == nil || glkLock.Acquisitions != 25 || glkLock.Kind != "glk" {
		t.Fatalf("glk lock telemetry: %+v", glkLock)
	}
	if glkLock.Mode != "ticket" {
		t.Fatalf("glk lock mode = %q", glkLock.Mode)
	}
	mcsLock := snap.Lock(2)
	if mcsLock == nil || mcsLock.Acquisitions != 1 || mcsLock.Kind != "mcs" {
		t.Fatalf("mcs lock telemetry: %+v", mcsLock)
	}
}

// TestTelemetryStaysOnFastPath pins the construction-time wiring: a
// telemetry-enabled service builds no debug state, so its entry points take
// the fast path (no per-op service branches), and the instrumented locks
// record through the fast entry points, handles included.
func TestTelemetryStaysOnFastPath(t *testing.T) {
	s, reg := newTelemetryService(t, Options{})
	if s.dbg != nil {
		t.Fatal("telemetry forced the service off the fast path")
	}
	h := s.NewHandle()
	h.Lock(9)
	h.Unlock(9)
	if !s.TryLock(9) {
		t.Fatal("TryLock failed on free lock")
	}
	s.Unlock(9)
	l := reg.Snapshot().Lock(9)
	if l == nil || l.Acquisitions != 2 {
		t.Fatalf("fast-path operations not recorded: %+v", l)
	}
}

func TestTelemetryTryLockFailure(t *testing.T) {
	s, reg := newTelemetryService(t, Options{})
	s.Lock(4)
	done := make(chan bool)
	go func() { done <- s.TryLock(4) }()
	if <-done {
		t.Fatal("TryLock succeeded on held lock")
	}
	s.Unlock(4)
	l := reg.Snapshot().Lock(4)
	if l.Acquisitions != 1 || l.TryFails != 1 {
		t.Fatalf("trylock accounting: %+v", l)
	}
}

func TestTelemetryWithDebug(t *testing.T) {
	s, reg := newTelemetryService(t, Options{Debug: true, OnIssue: func(Issue) {}})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Lock(1)
				s.Unlock(1)
			}
		}()
	}
	wg.Wait()
	l := reg.Snapshot().Lock(1)
	if l == nil || l.Acquisitions != 400 {
		t.Fatalf("debug+telemetry acquisitions: %+v", l)
	}
}

func TestFreeRetiresTelemetry(t *testing.T) {
	s, reg := newTelemetryService(t, Options{})
	for i := 0; i < 3; i++ {
		s.Lock(6)
		s.Unlock(6)
	}
	s.Free(6)
	snap := reg.Snapshot()
	if snap.Lock(6) != nil {
		t.Fatal("freed lock still listed")
	}
	if snap.Retired.Locks != 1 || snap.Retired.Acquisitions != 3 {
		t.Fatalf("retired totals: %+v", snap.Retired)
	}
	// Reuse after Free registers a fresh accumulator.
	s.Lock(6)
	s.Unlock(6)
	if l := reg.Snapshot().Lock(6); l == nil || l.Acquisitions != 1 {
		t.Fatalf("reused key telemetry: %+v", l)
	}
}

func TestGLKStatsStillWorksWithTelemetry(t *testing.T) {
	s, _ := newTelemetryService(t, Options{})
	s.Lock(8)
	s.Unlock(8)
	st, ok := s.GLKStats(8)
	if !ok || st.Acquired == 0 {
		t.Fatalf("GLKStats through telemetry-wrapped entry: %+v ok=%v", st, ok)
	}
}

func TestTelemetryTextReportNamesLocks(t *testing.T) {
	s, reg := newTelemetryService(t, Options{})
	s.Lock(0x51)
	s.Unlock(0x51)
	reg.SetLabel(0x51, "journal")
	var b strings.Builder
	if err := reg.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "journal") || !strings.Contains(out, "0x51") {
		t.Fatalf("report:\n%s", out)
	}
}

// TestProfileScopedToService: two services sharing one registry each
// profile only their own keys (the paper's profile is per-service).
func TestProfileScopedToService(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	a := newTestService(t, Options{Profile: true, Telemetry: reg})
	b := newTestService(t, Options{Profile: true, Telemetry: reg})
	a.Lock(1)
	a.Unlock(1)
	b.Lock(2)
	b.Unlock(2)
	statsA := a.ProfileStats()
	if len(statsA) != 1 || statsA[0].Key != 1 {
		t.Fatalf("service A profile leaked foreign locks: %+v", statsA)
	}
	statsB := b.ProfileStats()
	if len(statsB) != 1 || statsB[0].Key != 2 {
		t.Fatalf("service B profile leaked foreign locks: %+v", statsB)
	}
	// The shared registry still sees both.
	if len(reg.Snapshot().Locks) != 2 {
		t.Fatalf("registry Len = %d, want 2", len(reg.Snapshot().Locks))
	}
}

// TestProfileUsesSuppliedRegistry: Profile with an explicit registry reads
// through it instead of creating a private one.
func TestProfileUsesSuppliedRegistry(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	s := newTestService(t, Options{Profile: true, Telemetry: reg})
	if s.Telemetry() != reg {
		t.Fatal("Profile replaced the supplied registry")
	}
	s.Lock(2)
	s.Unlock(2)
	stats := s.ProfileStats()
	if len(stats) != 1 || stats[0].Key != 2 {
		t.Fatalf("ProfileStats via supplied registry: %+v", stats)
	}
}

// TestDefaultServiceReportBytes pins what a service's registry emits, in
// all three formats, for a fixed run of operations over every species of
// key, a failed TryLock and a Free. The files under testdata/telemetry are
// the bytes a one-table service produced while the table could still be
// partitioned (recorded at commit 688fd04, partition count 1): a consumer
// that parsed them then parses them now. Key 0x4's mode has read rwstriped,
// not rwinline, since the RW lock's modes became its admission protocols,
// and the text report's retired line has not counted idle evictions since
// the registry stopped evicting.
func TestDefaultServiceReportBytes(t *testing.T) {
	reg := telemetry.New(telemetry.Options{})
	s := newTestService(t, Options{Telemetry: reg})
	reg.SetLabel(1, "hot")
	for i := 0; i < 3; i++ {
		s.Lock(1)
		s.Unlock(1)
	}
	s.Lock(2)
	if s.TryLock(2) {
		t.Fatal("TryLock of a held key succeeded")
	}
	s.Unlock(2)
	s.LockWith(locks.MCS, 3)
	s.UnlockWith(locks.MCS, 3)
	s.RLock(4)
	s.RUnlock(4)
	s.Lock(4)
	s.Unlock(4)
	s.Lock(5)
	s.Unlock(5)
	s.Free(5)

	snap := reg.Snapshot()
	for file, write := range map[string]func(*strings.Builder) error{
		"report.txt":  func(b *strings.Builder) error { return snap.WriteText(b) },
		"report.json": func(b *strings.Builder) error { return snap.WriteJSON(b) },
		"report.prom": func(b *strings.Builder) error { return snap.WritePromText(b) },
	} {
		want, err := os.ReadFile("testdata/telemetry/" + file)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		if err := write(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("%s differs from the recorded bytes:\n got:\n%s\nwant:\n%s", file, got.String(), want)
		}
	}
}
