// Command glsbench regenerates the evaluation figures of "Locking Made
// Easy" (Middleware'16). Each -fig N prints the rows/series of the paper's
// figure N, measured on this machine with this repository's GLS/GLK
// implementation.
//
// Usage:
//
//	glsbench -fig 8                 # one figure
//	glsbench -fig 1 -fig 8 -fig 13  # several
//	glsbench -all                   # everything
//	glsbench -all -quick            # short runs (CI smoke)
//	glsbench -scenario FILE [-wire] # a committed .scn plan and its assertion lanes
//	glsbench -fair FILE             # writer-stream/reader-flood fairness sweep
//	glsbench -server FILE           # glsd wire-path sweep vs connection count
//	glsbench -cardinality           # ~1M-key footprint and zipf throughput
//
// Those three sweeps are the ones nothing else answers; every other number
// comes from glsmark (bash bench/run.sh) or go test -bench. Absolute numbers differ from the paper (different machine, Go runtime,
// modelled systems); the shapes — which lock wins where, and where the
// crossovers fall — are the reproduction target. See EXPERIMENTS.md.
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
	if _, ok := figures[n]; !ok {
		return fmt.Errorf("no figure %d (known: %s)", n, knownFigures())
	}
	f[n] = true
	return nil
}

// opts are the run-scale knobs shared by all figures.
type opts struct {
	duration   time.Duration // per measurement point
	reps       int           // repetitions (median taken)
	maxThreads int           // sweep ceiling
	quick      bool
}

// figure is one reproducible experiment.
type figure struct {
	title string
	run   func(o opts)
}

var figures = map[int]figure{
	1:  {"Different lock strategies under varying contention", fig1},
	5:  {"Performance crosspoint: threads for MCS to beat TICKET vs CS size", fig5},
	6:  {"GLK overhead vs adaptation and sampling periods", fig6},
	7:  {"Relative throughput of GLK vs best per-configuration lock", fig7},
	8:  {"A single lock on varying contention (CS=1024 cycles)", fig8},
	9:  {"Eight locks on varying contention (zipf 0.9, CS=1024)", fig9},
	10: {"One lock under varying contention levels over time (14 phases)", fig10},
	11: {"Latency overhead of GLS over directly using locks (1 thread)", fig11},
	12: {"Relative throughput of GLS over directly using locks (10 threads)", fig12},
	13: {"Memcached: MUTEX vs GLK vs GLS vs GLS SPECIALIZED", fig13},
	14: {"Five systems x {MUTEX,TICKET,MCS,GLK}, normalized to MUTEX", fig14},
	15: {"Same as figure 14 (second platform in the paper)", fig15},
}

func knownFigures() string {
	keys := make([]int, 0, len(figures))
	for k := range figures {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = strconv.Itoa(k)
	}
	return strings.Join(parts, ",")
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
	fair = flag.String("fair", "",
		"run the glsfair writer-stream/reader-flood fairness sweep and write the JSON report to this file (\"-\" for stdout)")
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

	o := opts{duration: *duration, reps: *reps, maxThreads: *maxThreads, quick: *quick}
	if o.quick {
		o.duration = 40 * time.Millisecond
		o.reps = 1
	}
	if o.reps < 1 {
		o.reps = 1 // a zero-sample sweep has no median
	}
	if o.maxThreads <= 0 {
		o.maxThreads = runtime.GOMAXPROCS(0)*2 + 8
	}

	if *all {
		for k := range figures {
			figs[k] = true
		}
	}
	if len(figs) == 0 && !*cardinality && *fair == "" && *srvBench == "" && len(scenarios) == 0 {
		fmt.Fprintf(os.Stderr, "usage: glsbench -fig N [-fig M ...] | -all | -fair FILE | -server FILE | -scenario FILE [-wire] | -cardinality  (figures: %s)\n", knownFigures())
		os.Exit(2)
	}
	if len(scenarios) == 0 && (*wire || *seed != 0 || *replay != "" || *scnJSON != "") {
		fmt.Fprintln(os.Stderr, "glsbench: -wire/-seed/-replay/-scnjson only apply with -scenario")
		os.Exit(2)
	}
	jsonSinks := 0
	for _, path := range []string{*fair, *srvBench, *scnJSON, *replay} {
		if path == "-" {
			jsonSinks++
		}
	}
	if jsonSinks > 1 || (jsonSinks == 1 && *cardinality) {
		// A "-" sink reserves stdout for one JSON report; the cardinality
		// text report (or a second JSON report) would interleave with it.
		// Run them separately.
		fmt.Fprintln(os.Stderr, "glsbench: only one of -fair -/-server -/-scnjson -/-replay - may own stdout, and not combined with -cardinality")
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
		runtime.GOMAXPROCS(0), cycles.FrequencyGHz(), o.duration, o.reps)

	if *fair != "" {
		fmt.Fprintf(progress, "== glsfair: writer-stream vs reader-flood fairness sweep ==\n")
		if err := runFair(*fair, progress, o); err != nil {
			fmt.Fprintf(os.Stderr, "glsbench: -fair: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(progress)
	}

	if *srvBench != "" {
		fmt.Fprintf(progress, "== glsd: open-loop wire-path sweep vs connection count ==\n")
		if err := runServer(*srvBench, progress, o); err != nil {
			fmt.Fprintf(os.Stderr, "glsbench: -server: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(progress)
	}

	if len(scenarios) > 0 {
		fmt.Fprintf(progress, "== glscn: trace-driven scenario engine, assertion lanes ==\n")
		if err := runScenarios(scenarios, *wire, *seed, *replay, *scnJSON, progress, o); err != nil {
			fmt.Fprintf(os.Stderr, "glsbench: -scenario: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(progress)
	}

	if *cardinality {
		fmt.Printf("== Cardinality: footprint and throughput at ~1M keys ==\n")
		if err := runCardinality(o); err != nil {
			fmt.Fprintf(os.Stderr, "glsbench: -cardinality: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}

	keys := make([]int, 0, len(figs))
	for k := range figs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		f := figures[k]
		fmt.Printf("== Figure %d: %s ==\n", k, f.title)
		f.run(o)
		fmt.Println()
	}
}
