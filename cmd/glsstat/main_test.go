package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gls/internal/stripe"
	"gls/telemetry"
	"gls/telemetry/telemetryhttp"
)

// writeSnapshotFile builds a registry with real traffic and writes its
// snapshot JSON to a temp file, returning the path and the registry.
func writeSnapshotFile(t *testing.T, extraAcq int) (string, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	st := reg.Register(0xabc, "glk")
	reg.SetLabel(0xabc, "hot")
	tok := stripe.Self()
	for i := 0; i < 10+extraAcq; i++ {
		a := st.Arrive(tok)
		a.Acquired(i%2 == 0)
		st.Release(tok)
	}
	st.Transition("ticket", "mcs", "avg queue 4.00 > 3.00")
	path := filepath.Join(t.TempDir(), "snap.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := reg.Snapshot().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path, reg
}

func TestReportFileText(t *testing.T) {
	path, _ := writeSnapshotFile(t, 0)
	var b bytes.Buffer
	if err := reportFile(&b, path, 0, "text"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"[glstat]", "0xabc", "hot", "ticket→mcs ×1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportFileJSONRoundTrip(t *testing.T) {
	path, _ := writeSnapshotFile(t, 0)
	var b bytes.Buffer
	if err := reportFile(&b, path, 0, "json"); err != nil {
		t.Fatal(err)
	}
	snap, err := telemetry.ReadJSON(&b)
	if err != nil {
		t.Fatalf("glsstat -format json output not parseable: %v", err)
	}
	if snap.Lock(0xabc) == nil || snap.Lock(0xabc).Acquisitions != 10 {
		t.Fatalf("snapshot after round trip: %+v", snap)
	}
}

func TestDiffFiles(t *testing.T) {
	oldPath, reg := writeSnapshotFile(t, 0)
	// More traffic on the same registry, then a second snapshot file.
	st := reg.Get(0xabc)
	tok := stripe.Self()
	for i := 0; i < 7; i++ {
		a := st.Arrive(tok)
		a.Acquired(false)
		st.Release(tok)
	}
	newPath := filepath.Join(t.TempDir(), "new.json")
	f, err := os.Create(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var b bytes.Buffer
	if err := diffFiles(&b, oldPath, newPath, 0, "json"); err != nil {
		t.Fatal(err)
	}
	snap, err := telemetry.ReadJSON(&b)
	if err != nil {
		t.Fatal(err)
	}
	l := snap.Lock(0xabc)
	if l == nil || l.Acquisitions != 7 {
		t.Fatalf("interval acquisitions = %+v, want 7", l)
	}
	if len(l.Transitions) != 0 {
		t.Fatalf("no transitions happened in the interval, got %+v", l.Transitions)
	}
}

func TestDiffFilesBadInput(t *testing.T) {
	path, _ := writeSnapshotFile(t, 0)
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := diffFiles(&bytes.Buffer{}, bad, path, 0, "text"); err == nil {
		t.Fatal("accepted corrupt old snapshot")
	}
	if err := reportFile(&bytes.Buffer{}, filepath.Join(t.TempDir(), "missing.json"), 0, "text"); err == nil {
		t.Fatal("accepted missing file")
	}
}

func TestRenderTop(t *testing.T) {
	snap := &telemetry.Snapshot{
		SamplePeriod: 1,
		Locks: []telemetry.LockSnapshot{
			{Key: 1, Kind: "glk", Arrivals: 10, Acquisitions: 10, Contended: 9},
			{Key: 2, Kind: "glk", Arrivals: 10, Acquisitions: 10, Contended: 1},
		},
	}
	var b bytes.Buffer
	if err := render(&b, snap, 1, "text"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "0x2") {
		t.Fatalf("-top 1 kept the less contended lock:\n%s", b.String())
	}

	// The live frame's columns, exactly: one table, whatever the producer.
	var frame bytes.Buffer
	renderTopFrame(&frame, telemetry.Point{Top: []telemetry.LockRate{{Key: 1, Kind: "glk"}}}, nil)
	const header = "KEY                LABEL      KIND    MODE        ACQ/S   R-ACQ/S  CONT% TRANS  P95-WAIT PRESENT"
	if lines := strings.Split(frame.String(), "\n"); len(lines) < 3 || lines[1] != header {
		t.Fatalf("live frame columns changed:\n%s", frame.String())
	}
}

func TestDemoProducesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("demo runs a timed workload")
	}
	reg, cleanup := demo(150 * time.Millisecond)
	cleanup()
	snap := reg.Snapshot()
	hot := snap.Lock(1)
	if hot == nil || hot.Acquisitions == 0 || hot.Label != "hot" {
		t.Fatalf("demo telemetry: %+v", hot)
	}
}

// TestUnknownFieldsStillRender: a snapshot produced by another build must
// render anyway — the strict pass only warns — and the known fields must
// survive the lenient decode. Skew runs both ways: a newer producer adds
// per-lock fields, and a glsd from before the table was one still writes a
// shard on every lock and a shards block.
func TestUnknownFieldsStillRender(t *testing.T) {
	for name, edit := range map[string][2]string{
		"newer":      {`"kind": "glk"`, `"kind": "glk", "field_from_the_future": 7`},
		"older":      {`"retired": {`, `"shards": [{"shard": 3, "locks": 1, "acquisitions": 10}], "retired": {`},
		"older lock": {`"kind": "glk"`, `"kind": "glk", "shard": 3`},
	} {
		t.Run(name, func(t *testing.T) {
			path, _ := writeSnapshotFile(t, 0)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			skewed := strings.Replace(string(data), edit[0], edit[1], 1)
			if skewed == string(data) {
				t.Fatal("fixture substitution failed")
			}
			if err := os.WriteFile(path, []byte(skewed), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			warning := captureStderr(t, func() {
				if err := reportFile(&out, path, 0, "text"); err != nil {
					t.Fatalf("reportFile on a skewed snapshot: %v", err)
				}
			})
			if !strings.Contains(out.String(), "hot") {
				t.Fatalf("skewed snapshot dropped known fields:\n%s", out.String())
			}
			if !strings.Contains(warning, "carries fields this build does not render") {
				t.Fatalf("no unknown-field warning on stderr: %q", warning)
			}
		})
	}
}

// captureStderr returns what fn wrote to os.Stderr.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	fn()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRendersFairnessLanes: the glsfair starvation/phase lanes appear in
// the text report's read-side line.
func TestRendersFairnessLanes(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	st := reg.Register(0xf0, "glkrw")
	st.EnableRW()
	tok := stripe.Self()
	a := st.RArrive(tok)
	a.RAcquired(true)
	st.RWaitedPhases(tok, 9)
	st.RStarvedEvent(tok)
	st.RRelease(tok)
	path := filepath.Join(t.TempDir(), "snap.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if err := reportFile(&out, path, 0, "text"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bypass-phases 9") || !strings.Contains(out.String(), "starved 1") {
		t.Fatalf("fairness lanes missing from report:\n%s", out.String())
	}
}

// TestParseFormat: the valid set passes through, anything else is rejected
// with an error that names every valid format.
func TestParseFormat(t *testing.T) {
	for _, ok := range []string{"text", "json", "prom"} {
		if got, err := parseFormat(ok); err != nil || got != ok {
			t.Fatalf("parseFormat(%q) = %q, %v", ok, got, err)
		}
	}
	_, err := parseFormat("xml")
	if err == nil {
		t.Fatal("parseFormat accepted xml")
	}
	for _, want := range []string{"text", "json", "prom"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("rejection does not list %q: %v", want, err)
		}
	}
}

// TestRenderProm: -format prom routes through the Prometheus writer.
func TestRenderProm(t *testing.T) {
	path, _ := writeSnapshotFile(t, 0)
	var b bytes.Buffer
	if err := reportFile(&b, path, 0, "prom"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE gls_lock_acquisitions_total counter",
		`gls_lock_acquisitions_total{key="0xabc",label="hot",kind="glk",side="write"} 10`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("prom render missing %q:\n%s", want, b.String())
		}
	}
}

// topRegistry builds a registry with traffic between frames, driven by the
// callback runTop invokes as its snapshot source.
func topRegistry(t *testing.T) (*telemetry.Registry, func() (*telemetry.Snapshot, error)) {
	t.Helper()
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	st := reg.Register(0x77, "glk")
	reg.SetLabel(0x77, "busy")
	tok := stripe.Self()
	src := func() (*telemetry.Snapshot, error) {
		for i := 0; i < 50; i++ {
			a := st.Arrive(tok)
			a.Acquired(i%2 == 0)
			st.Release(tok)
		}
		return reg.Snapshot(), nil
	}
	return reg, src
}

// TestRunTopInProcess: the live view renders frames with rate columns and
// carries events from the in-process stream into the ticker.
func TestRunTopInProcess(t *testing.T) {
	reg, src := topRegistry(t)
	sub := reg.Events().Subscribe()
	defer sub.Close()
	reg.Get(0x77).Transition("ticket", "mcs", "avg queue 4.00 > 3.00")

	var b bytes.Buffer
	err := runTop(&b, src, sub, topConfig{n: 5, interval: 15 * time.Millisecond, frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"[glslive]", "KEY", "CONT%", "0x77", "busy",
		"recent events:", "transition", "ticket→mcs", "avg queue 4.00 > 3.00",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("live frame missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "[glslive]") != 2 {
		t.Fatalf("frames=2 rendered %d frames:\n%s", strings.Count(out, "[glslive]"), out)
	}
}

// TestRunTopRemote: the live view polls a telemetryhttp endpoint and
// reconstructs the ticker from the interval diff's transition edges.
func TestRunTopRemote(t *testing.T) {
	reg, src := topRegistry(t)
	srv := httptest.NewServer(telemetryhttp.Handler(reg))
	defer srv.Close()

	// Traffic and a transition between polls, driven server-side.
	var mu sync.Mutex
	frames := 0
	proxy := func() (*telemetry.Snapshot, error) {
		mu.Lock()
		if _, err := src(); err != nil { // drive traffic into the registry
			mu.Unlock()
			return nil, err
		}
		frames++
		if frames == 2 {
			reg.Get(0x77).Transition("mcs", "futex", "oversubscribed")
		}
		mu.Unlock()
		return fetchURL(srv.URL + "?format=json")()
	}

	var b bytes.Buffer
	if err := runTop(&b, proxy, nil, topConfig{n: 3, interval: 15 * time.Millisecond, frames: 2}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"[glslive]", "0x77", "mcs→futex", "oversubscribed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("remote live frame missing %q:\n%s", want, out)
		}
	}
}

// TestFetchURLErrors: non-200 responses surface as errors, not empty
// snapshots.
func TestFetchURLErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	if _, err := fetchURL(srv.URL)(); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("fetchURL on a 503: %v", err)
	}
}

// TestFormatEvent: ticker lines carry the kind, identity, edge, and reason.
func TestFormatEvent(t *testing.T) {
	line := formatEvent(&telemetry.Event{
		Time: time.Date(2026, 8, 8, 12, 30, 15, 0, time.UTC),
		Kind: telemetry.EventTransition, Key: 0x9, Label: "idx",
		From: "ticket", To: "mcs", Count: 3, Reason: "queue grew",
	})
	for _, want := range []string{"12:30:15", "transition", "0x9(idx)", "ticket→mcs", "×3", "queue grew"} {
		if !strings.Contains(line, want) {
			t.Fatalf("event line missing %q: %s", want, line)
		}
	}
}
