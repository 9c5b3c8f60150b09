// Command glsstat inspects glstat telemetry — offline snapshot files, a
// live endpoint, or a built-in demo workload. It is the terminal companion
// to the in-process report (telemetry.Snapshot.WriteText) and the HTTP
// surface (telemetry/telemetryhttp):
//
//	glsstat snap.json                  print the /proc/lock_stat-style report
//	glsstat -format json snap.json     re-emit normalized, sorted JSON
//	glsstat -format prom snap.json     Prometheus text exposition
//	glsstat -diff old.json new.json    report only the interval between two snapshots
//	glsstat -n 5 snap.json             the five most contended locks
//	glsstat -demo                      run a built-in contended workload and report it
//	glsstat -demo -serve :8080         ...and serve /debug/glstat + /metrics + expvar
//	glsstat -top -demo                 live top view of the demo workload
//	glsstat -top http://host:8080/debug/glstat?format=json
//	                                   live top view polled from a -serve endpoint
//
// The live view (-top) refreshes every -interval, sorts locks by interval
// contention, renders rate columns (acquisitions/s, contention %, writer
// drain), and keeps a ticker of recent events — transitions, starvation
// escalations, abort storms, deadlocks, evictions — from the event stream
// (in-process) or from the interval diff (remote). -once renders a single
// frame and exits, for scripts and CI.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"gls"
	"gls/glk"
	"gls/internal/cycles"
	"gls/internal/sysmon"
	"gls/telemetry"
	"gls/telemetry/telemetryhttp"
)

// loadSnapshot reads a JSON snapshot from path ("-" for stdin). Snapshots
// from a newer build may carry per-lock fields this build does not know how
// to render; those are reported on stderr rather than dropped silently, so
// an operator diffing fleet snapshots knows the report is incomplete.
func loadSnapshot(path string) (*telemetry.Snapshot, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	snap, err := telemetry.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	warnUnknownFields(path, data)
	return snap, nil
}

// warnUnknownFields re-decodes the snapshot with unknown fields disallowed
// and surfaces the first mismatch as a warning. The lenient decode above
// already produced a usable snapshot; this pass only decides whether to
// tell the operator that the producing build is newer than this glsstat.
func warnUnknownFields(path string, data []byte) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var strict telemetry.Snapshot
	if err := dec.Decode(&strict); err != nil {
		fmt.Fprintf(os.Stderr,
			"glsstat: warning: %s carries fields this build does not render (%v); upgrade glsstat for the full report\n",
			path, err)
	}
}

// parseFormat validates the -format flag value, naming the valid set on
// rejection.
func parseFormat(s string) (string, error) {
	switch s {
	case "text", "json", "prom":
		return s, nil
	}
	return "", fmt.Errorf("unknown format %q (valid: \"text\", \"json\", \"prom\")", s)
}

// render writes snap in the requested format, keeping only the n most
// contended locks if n > 0 (the snapshot is sorted by contention already).
func render(w io.Writer, snap *telemetry.Snapshot, n int, format string) error {
	if n > 0 && n < len(snap.Locks) {
		snap.Locks = snap.Locks[:n]
	}
	switch format {
	case "json":
		return snap.WriteJSON(w)
	case "prom":
		return snap.WritePromText(w)
	default:
		return snap.WriteText(w)
	}
}

// reportFile renders one snapshot file.
func reportFile(w io.Writer, path string, n int, format string) error {
	snap, err := loadSnapshot(path)
	if err != nil {
		return err
	}
	return render(w, snap, n, format)
}

// diffFiles renders the interval between two snapshot files.
func diffFiles(w io.Writer, oldPath, newPath string, n int, format string) error {
	oldSnap, err := loadSnapshot(oldPath)
	if err != nil {
		return fmt.Errorf("old snapshot: %w", err)
	}
	newSnap, err := loadSnapshot(newPath)
	if err != nil {
		return fmt.Errorf("new snapshot: %w", err)
	}
	return render(w, newSnap.Diff(oldSnap), n, format)
}

// topConfig shapes the live view loop.
type topConfig struct {
	n        int           // rows per frame (0 = all)
	interval time.Duration // refresh cadence
	frames   int           // stop after this many frames (0 = run forever)
	clear    bool          // ANSI-clear between frames (interactive terminal)
}

// tickerDepth is how many recent event lines a frame retains.
const tickerDepth = 8

// runTop drives the live view: snapshot the source every interval, diff
// against the previous frame, derive rates, and render. sub, when non-nil,
// feeds the event ticker from the in-process stream; remotely the ticker is
// reconstructed from each interval diff's transition edges.
func runTop(w io.Writer, src func() (*telemetry.Snapshot, error), sub *telemetry.Subscriber, cfg topConfig) error {
	prev, err := src()
	if err != nil {
		return err
	}
	prevAt := time.Now()
	var ticker []string
	push := func(lines ...string) {
		ticker = append(ticker, lines...)
		if over := len(ticker) - tickerDepth; over > 0 {
			ticker = append(ticker[:0], ticker[over:]...)
		}
	}
	for frame := 0; cfg.frames == 0 || frame < cfg.frames; frame++ {
		time.Sleep(cfg.interval)
		cur, err := src()
		if err != nil {
			return err
		}
		at := time.Now()
		diff := cur.Diff(prev)
		p := telemetry.DerivePoint(diff, at, at.Sub(prevAt), cfg.n)
		if sub != nil {
			for _, ev := range sub.Poll(4 * tickerDepth) {
				push(formatEvent(ev))
			}
			if d := sub.Dropped(); d > 0 {
				push(fmt.Sprintf("%s (%d older events dropped)", at.Format("15:04:05"), d))
			}
		} else {
			push(tickerFromDiff(at, diff)...)
		}
		if cfg.clear {
			fmt.Fprint(w, "\x1b[H\x1b[2J")
		}
		renderTopFrame(w, p, ticker)
		prev, prevAt = cur, at
	}
	return nil
}

// renderTopFrame writes one live-view frame: the aggregate header, the
// per-lock rate table (already sorted most-contended first), and the event
// ticker.
func renderTopFrame(w io.Writer, p telemetry.Point, ticker []string) {
	fmt.Fprintf(w, "[glslive] %s  interval %v  acq/s %.0f  contention %.1f%%",
		p.Time.Format("15:04:05"), p.Elapsed.Round(time.Millisecond), p.AcqPerSec, p.ContentionPct)
	if p.DrainNsPerSec > 0 {
		fmt.Fprintf(w, "  drain %s/s", time.Duration(p.DrainNsPerSec))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-18s %-10s %-7s %-7s %9s %9s %6s %5s %9s %7s\n",
		"KEY", "LABEL", "KIND", "MODE", "ACQ/S", "R-ACQ/S", "CONT%", "TRANS", "P95-WAIT", "PRESENT")
	for i := range p.Top {
		r := &p.Top[i]
		racq := "-"
		if r.RAcqPerSec > 0 {
			racq = fmt.Sprintf("%.0f", r.RAcqPerSec)
		}
		p95 := "-"
		if r.P95Wait > 0 {
			p95 = r.P95Wait.Round(time.Microsecond).String()
		}
		fmt.Fprintf(w, "%-18s %-10s %-7s %-7s %9.0f %9s %5.1f%% %5d %9s %7d\n",
			fmt.Sprintf("%#x", r.Key), clip(r.Label, 10), r.Kind, r.Mode,
			r.AcqPerSec, racq, r.ContentionPct, r.Transitions, p95, r.Present)
	}
	if len(ticker) > 0 {
		fmt.Fprintln(w, "recent events:")
		for _, line := range ticker {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
}

// clip truncates s to at most n runes for fixed-width columns.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// formatEvent renders one stream event as a ticker line.
func formatEvent(ev *telemetry.Event) string {
	id := fmt.Sprintf("%#x", ev.Key)
	if ev.Label != "" {
		id += "(" + ev.Label + ")"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %-11s %s", ev.Time.Format("15:04:05"), ev.Kind, id)
	if ev.From != "" || ev.To != "" {
		fmt.Fprintf(&b, " %s→%s", ev.From, ev.To)
	}
	if ev.Count > 1 {
		fmt.Fprintf(&b, " ×%d", ev.Count)
	}
	if ev.Reason != "" {
		fmt.Fprintf(&b, " — %s", ev.Reason)
	}
	return b.String()
}

// tickerFromDiff reconstructs ticker lines from an interval diff for
// sources with no event stream (a polled JSON endpoint): one line per
// transition edge that moved, plus lifecycle counts from the retired header.
func tickerFromDiff(at time.Time, diff *telemetry.Snapshot) []string {
	var out []string
	stamp := at.Format("15:04:05")
	for i := range diff.Locks {
		l := &diff.Locks[i]
		id := fmt.Sprintf("%#x", l.Key)
		if l.Label != "" {
			id += "(" + l.Label + ")"
		}
		for _, tr := range l.Transitions {
			line := fmt.Sprintf("%s %-11s %s %s→%s", stamp, "transition", id, tr.From, tr.To)
			if tr.Count > 1 {
				line += fmt.Sprintf(" ×%d", tr.Count)
			}
			if tr.Reason != "" {
				line += " — " + tr.Reason
			}
			out = append(out, line)
		}
	}
	if n := diff.Retired.Locks; n > 0 {
		out = append(out, fmt.Sprintf("%s %-11s %d locks folded into retired totals", stamp, "retired", n))
	}
	return out
}

// fetchURL returns a snapshot source polling url, which must serve
// telemetry JSON (a telemetryhttp endpoint with ?format=json).
func fetchURL(url string) func() (*telemetry.Snapshot, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	return func() (*telemetry.Snapshot, error) {
		resp, err := client.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
		}
		return telemetry.ReadJSON(resp.Body)
	}
}

// demo runs a small contended workload against a telemetry-enabled service
// and returns its registry, for -demo and -serve.
func demo(d time.Duration) (*telemetry.Registry, func()) {
	mon := sysmon.New(sysmon.Options{Interval: time.Millisecond, DisableProbes: true})
	mon.Start()
	reg := telemetry.New(telemetry.Options{SamplePeriod: 8})
	svc := gls.New(gls.Options{
		Telemetry: reg,
		GLK:       &glk.Config{Monitor: mon, SamplePeriod: 8, AdaptPeriod: 64},
	})
	const hot, cold uint64 = 1, 2
	reg.SetLabel(hot, "hot")
	reg.SetLabel(cold, "cold")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				svc.Lock(hot)
				cycles.Wait(512)
				svc.Unlock(hot)
				if i == 0 && n%64 == 0 {
					svc.Lock(cold)
					cycles.Wait(128)
					svc.Unlock(cold)
				}
			}
		}(g)
	}
	cleanup := func() {
		close(stop)
		wg.Wait()
		svc.Close()
		mon.Stop()
	}
	if d > 0 {
		time.Sleep(d)
	}
	return reg, cleanup
}

const usage = `usage: glsstat [-format text|json|prom] [-n N] FILE.json
       glsstat -diff OLD.json NEW.json
       glsstat -top [-once] [-interval D] (-demo | URL)
       glsstat -demo [-duration D] [-serve ADDR]`

func main() {
	diff := flag.Bool("diff", false, "treat the two file arguments as old and new snapshots and report the interval")
	format := flag.String("format", "text", `output format: "text", "json", or "prom"`)
	n := flag.Int("n", 0, "limit output to the N most contended locks (0 = all)")
	top := flag.Bool("top", false, "live view: refresh, sort by contention, show rates and an event ticker (needs -demo or a URL argument)")
	once := flag.Bool("once", false, "with -top: render a single frame and exit")
	interval := flag.Duration("interval", time.Second, "with -top: refresh cadence")
	runDemo := flag.Bool("demo", false, "run a built-in contended workload instead of reading files")
	demoDur := flag.Duration("duration", 500*time.Millisecond, "demo workload duration")
	serve := flag.String("serve", "", "with -demo: keep the workload running and serve /debug/glstat, /metrics, and expvar on this address")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "glsstat: %v\n", err)
		os.Exit(1)
	}

	fmtName, err := parseFormat(*format)
	if err != nil {
		fail(err)
	}

	switch {
	case *top:
		cfg := topConfig{n: *n, interval: *interval}
		if *once {
			cfg.frames = 1
		} else {
			cfg.clear = true
		}
		if *runDemo {
			reg, cleanup := demo(0)
			defer cleanup()
			sub := reg.Events().Subscribe()
			defer sub.Close()
			if err := runTop(os.Stdout, func() (*telemetry.Snapshot, error) { return reg.Snapshot(), nil }, sub, cfg); err != nil {
				fail(err)
			}
		} else if flag.NArg() == 1 && strings.HasPrefix(flag.Arg(0), "http") {
			if err := runTop(os.Stdout, fetchURL(flag.Arg(0)), nil, cfg); err != nil {
				fail(err)
			}
		} else {
			fail(fmt.Errorf("-top needs a live source: -demo or one http(s) URL argument"))
		}
	case *runDemo && *serve != "":
		reg, _ := demo(0) // workload keeps running behind the server
		telemetryhttp.Publish("glstat", reg)
		http.Handle("/debug/glstat", telemetryhttp.Handler(reg))
		http.Handle("/metrics", telemetryhttp.Metrics(reg))
		fmt.Printf("serving http://%s/debug/glstat (text; ?format=json|prom), /metrics (prometheus), /debug/vars (expvar)\n", *serve)
		fail(http.ListenAndServe(*serve, nil))
	case *runDemo:
		reg, cleanup := demo(*demoDur)
		cleanup()
		if err := render(os.Stdout, reg.Snapshot(), *n, fmtName); err != nil {
			fail(err)
		}
	case *diff:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-diff needs exactly two snapshot files (old new), got %d", flag.NArg()))
		}
		if err := diffFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *n, fmtName); err != nil {
			fail(err)
		}
	case flag.NArg() == 1:
		if err := reportFile(os.Stdout, flag.Arg(0), *n, fmtName); err != nil {
			fail(err)
		}
	default:
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
}
