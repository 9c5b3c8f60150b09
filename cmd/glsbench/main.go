// Command glsbench regenerates the evaluation figures of "Locking Made
// Easy" (Middleware'16). Each -fig N prints the tables of the paper's
// figure N, measured on this machine with this repository's GLS/GLK
// implementation. The figures are defined in internal/figures, which
// BenchmarkFigures also reads; glsbench exits 1 when a figure fails its
// checks (a broken workload invariant, a value that is not finite).
//
// Usage:
//
//	glsbench -fig 8                 # one figure
//	glsbench -fig 1 -fig 8 -fig 13  # several
//	glsbench -all                   # everything
//	glsbench -all -quick            # short runs (CI smoke)
//	glsbench -fig 13 -contention    # per-role contention of a systems figure (13, 14, 15)
//	glsbench -scenario FILE [-wire] # a committed .scn plan and its assertion lanes
//	glsbench -server FILE           # glsd wire-path sweep vs connection count
//	glsbench -cardinality           # ~1M-key footprint and zipf throughput
//
// Those two sweeps are the ones nothing else answers; every other number
// comes from glsmark (bash bench/run.sh), go test -bench or a scenario
// (RW fairness is testdata/scenarios/fair.scn). Absolute numbers differ
// from the paper (different machine, Go runtime, modelled systems); the
// shapes — which lock wins where, and where the crossovers fall — are the
// reproduction target. See EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"gls/internal/cycles"
	"gls/internal/figures"
)

// figSet collects repeated -fig flags.
type figSet map[int]bool

func (f figSet) String() string {
	var parts []string
	for k := range f {
		parts = append(parts, strconv.Itoa(k))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (f figSet) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	for _, fig := range figures.All {
		if fig.Number == n {
			f[n] = true
			return nil
		}
	}
	return fmt.Errorf("no figure %d (known: %s)", n, knownFigures())
}

func knownFigures() string {
	parts := make([]string, len(figures.All))
	for i, f := range figures.All {
		parts[i] = strconv.Itoa(f.Number)
	}
	return strings.Join(parts, ",")
}

// runFigure measures figure f at scale s and prints it: its title, note,
// tables and the paper's claim.
func runFigure(w io.Writer, f figures.Figure, s figures.Scale) error {
	fmt.Fprintf(w, "== Figure %d: %s ==\n", f.Number, f.Title)
	tables, err := f.Run(s)
	if err != nil {
		return err
	}
	if f.Note != "" {
		fmt.Fprintln(w, f.Note)
	}
	for _, t := range tables {
		t.Print(w)
	}
	if f.Paper != "" {
		fmt.Fprintln(w, f.Paper)
	}
	return nil
}

// writeJSON writes v, indented, to path ("-" for stdout).
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// The command line. Package-level so the doc-command lint (main_test.go)
// can ask flag.Lookup which flags exist.
var (
	figs      = figSet{}
	scenarios scnList

	all         = flag.Bool("all", false, "run every figure")
	cardinality = flag.Bool("cardinality", false,
		"run the high-cardinality footprint scenario: ~1M keys, zipf access, bytes/lock and ns/op")
	srvBench = flag.String("server", "",
		"run the glsd wire-path sweep (open-loop load vs connection count, parked waiters) and write the JSON report to this file (\"-\" for stdout)")
	wire = flag.Bool("wire", false,
		"with -scenario: drive the ops over the glsd wire path (loopback server) instead of the in-process Service")
	seed = flag.Uint64("seed", 0,
		"with -scenario: override the scenario file's seed (0 keeps the file's; same seed replays the identical op sequence)")
	replay = flag.String("replay", "",
		"with a single -scenario: write the deterministic replay log (every planned op) to this file (\"-\" for stdout)")
	scnJSON = flag.String("scnjson", "",
		"with -scenario: write the scenario engine's JSON report to this file (\"-\" for stdout)")
	contention = flag.Bool("contention", false,
		"with -fig 13/14/15: attach a telemetry registry to every lock configuration and print per-role contention after each cell")
	quick      = flag.Bool("quick", false, "short runs for smoke testing")
	duration   = flag.Duration("duration", 400*time.Millisecond, "measurement window per point")
	reps       = flag.Int("reps", 3, "repetitions per point (median reported; paper uses 11)")
	maxThreads = flag.Int("maxthreads", 0, "thread-sweep ceiling (default ~2.5x GOMAXPROCS)")
)

func init() {
	flag.Var(figs, "fig", "figure number to regenerate (repeatable)")
	flag.Var(&scenarios, "scenario",
		"run a committed .scn scenario file through the glscn engine and evaluate its assertion lanes (repeatable)")
}

func main() {
	flag.Parse()

	s := figures.Scale{Duration: *duration, Reps: max(*reps, 1), MaxThreads: *maxThreads} // a zero-sample sweep has no median
	if *quick {
		s = figures.Quick()
		s.MaxThreads = *maxThreads
	}

	systems := false
	for _, f := range figures.All {
		if *all {
			figs[f.Number] = true
		}
		systems = systems || figs[f.Number] && f.Systems
	}
	if len(figs) == 0 && !*cardinality && *srvBench == "" && len(scenarios) == 0 {
		fmt.Fprintf(os.Stderr, "usage: glsbench -fig N [-fig M ...] | -all | -server FILE | -scenario FILE [-wire] | -cardinality  (figures: %s)\n", knownFigures())
		os.Exit(2)
	}
	if len(scenarios) == 0 && (*wire || *seed != 0 || *replay != "" || *scnJSON != "") {
		fmt.Fprintln(os.Stderr, "glsbench: -wire/-seed/-replay/-scnjson only apply with -scenario")
		os.Exit(2)
	}
	if *contention {
		if !systems {
			fmt.Fprintln(os.Stderr, "glsbench: -contention only applies with a systems figure (-fig 13, 14 or 15, or -all)")
			os.Exit(2)
		}
		s.Contention = os.Stdout
	}
	jsonSinks := 0
	for _, path := range []string{*srvBench, *scnJSON, *replay} {
		if path == "-" {
			jsonSinks++
		}
	}
	if jsonSinks > 1 || (jsonSinks == 1 && *cardinality) {
		// A "-" sink reserves stdout for one JSON report; the cardinality
		// text report (or a second JSON report) would interleave with it.
		// Run them separately.
		fmt.Fprintln(os.Stderr, "glsbench: only one of -server -/-scnjson -/-replay - may own stdout, and not combined with -cardinality")
		os.Exit(2)
	}

	// With a "-" JSON sink, stdout is reserved for the report: banners,
	// headers, and the per-point table all move to stderr so the output
	// pipes cleanly into jq and friends.
	progress := io.Writer(os.Stdout)
	if jsonSinks == 1 {
		progress = os.Stderr
	}
	cycles.Calibrate()
	fmt.Fprintf(progress, "# glsbench: GOMAXPROCS=%d, nominal frequency %.1f GHz, %v/point, %d rep(s)\n\n",
		runtime.GOMAXPROCS(0), cycles.FrequencyGHz(), s.Duration, s.Reps)

	if *srvBench != "" {
		fmt.Fprintf(progress, "== glsd: open-loop wire-path sweep vs connection count ==\n")
		if err := runServer(*srvBench, progress, s); err != nil {
			fmt.Fprintf(os.Stderr, "glsbench: -server: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(progress)
	}

	if len(scenarios) > 0 {
		fmt.Fprintf(progress, "== glscn: trace-driven scenario engine, assertion lanes ==\n")
		if err := runScenarios(scenarios, *wire, *seed, *replay, *scnJSON, progress, s); err != nil {
			fmt.Fprintf(os.Stderr, "glsbench: -scenario: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(progress)
	}

	if *cardinality {
		fmt.Printf("== Cardinality: footprint and throughput at ~1M keys ==\n")
		if err := runCardinality(s); err != nil {
			fmt.Fprintf(os.Stderr, "glsbench: -cardinality: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}

	for _, f := range figures.All {
		if !figs[f.Number] {
			continue
		}
		if err := runFigure(os.Stdout, f, s); err != nil {
			fmt.Fprintf(os.Stderr, "glsbench: -fig %d: %v\n", f.Number, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
