// Command bench is glsmark, the repository's one benchmark: five workloads
// over the public API of locks, glk, gls, server, client and telemetry,
// six end-to-end metrics normalised against a speed probe that runs
// between workload phases, and a traced run that adds the per-layer ladder.
// See README.md in this directory.
//
//	bash bench/run.sh -workload inproc_spread -seed 1   # one run
//	bash bench/run.sh -workload wire_spread -trace 1    # its traced run
//	bash bench/run.sh -set a.json                       # all five workloads
//	bash bench/run.sh -aa 6 > bench/AA.md               # A/A: six sets, same code
//	bash bench/run.sh -compare a.json b.json            # before / after
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// resultFile is what -json and -set write and -compare reads.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "input seed: key order, slot→key assignment, read/write choice")
	seconds := fs.Float64("seconds", 20, "length of the measured part of a run (the driver passes BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1: the traced run (spans, ladder, per-layer metrics); end-to-end metrics need 0")
	jsonPath := fs.String("json", "", "result file (default <out>/<workload>[-trace].json)")
	set := fs.String("set", "", "run all five workloads and write their results to this file")
	aa := fs.Int("aa", 0, "run this many sets of all five workloads (6 is usual) and compare them with each other")
	compare := fs.Bool("compare", false, "compare two result files: -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	outDir := "out"
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		outDir = filepath.Join("bench", "out")
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), out)
	case *aa > 0:
		return runAA(*aa, *seconds, outDir, out)
	case *set != "":
		runs, err := runSet(*seed, *seconds, outDir)
		if err != nil {
			return err
		}
		return writeJSON(*set, resultFile{Runs: runs})
	case *workload == "":
		fs.Usage()
		return fmt.Errorf("need -workload, -set, -aa or -compare")
	}

	cfg := newConfig(*workload, *seed, *trace != 0, *seconds, outDir)
	res, err := run(cfg)
	if err != nil {
		return err
	}
	if *jsonPath == "" {
		name := cfg.workload
		if cfg.trace {
			name += "-trace"
		}
		*jsonPath = filepath.Join(outDir, name+".json")
	}
	if err := writeJSON(*jsonPath, resultFile{Runs: []*result{res}}); err != nil {
		return err
	}
	report(out, res)
	if !res.Correct {
		return fmt.Errorf("%s: outputs are not correct", cfg.workload)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints every metric by name with its unit, and last the one-line
// JSON object the benchmark contract asks for: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func report(out io.Writer, res *result) {
	e := res.Env
	fmt.Fprintf(out, "glsmark %s seed=%d plan_hash=%s cycles=%d phase=%gms probe=%gms trace=%v\n",
		res.Workload, e.Seed, e.PlanHash, e.Cycles, e.PhaseMS, e.ProbeMS, res.Trace)
	timed := "every op is timed"
	if e.TimedBurst > 0 {
		timed = fmt.Sprintf("of every %d ops the last %d are timed as one", e.TimedOpPeriod, e.TimedBurst)
	}
	fmt.Fprintf(out, "  commit=%s %s nproc=%d GOMAXPROCS=%d timer=%.1fns (%s)\n",
		e.Commit, e.GoVersion, e.NProc, e.GOMAXPROCS, e.TimerNS, timed)
	fmt.Fprintf(out, "  ops attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, msg := range res.Errors {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", msg)
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted uint64                    `json:"attempted"`
		Failed    uint64                    `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]map[string]any{}}
	if !res.Correct && line.Failed == 0 {
		line.Failed = uint64(len(res.Errors)) // a failed check is at least one failed op
	}
	defs, vals := endToEnd, res.EndToEnd
	if res.Trace {
		defs, vals = perLayer, res.PerLayer
		fmt.Fprintf(out, "  (traced run: end-to-end values below come from its few untraced cycles and are not the gated ones)\n")
	}
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", m.Name, res.EndToEnd[m.Name], m.Unit)
	}
	for _, m := range perLayer {
		if v := res.PerLayer[m.Name]; res.Trace || v != 0 {
			fmt.Fprintf(out, "  %-26s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	names := make([]string, 0, len(res.SelfShare))
	for name := range res.SelfShare {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  span self time %-24s %6.2f %%\n", name, res.SelfShare[name]*100)
	}
	for _, m := range defs {
		line.Metrics[m.Name] = map[string]any{"value": vals[m.Name], "unit": m.Unit}
	}
	data, _ := json.Marshal(line) // plain maps of numbers and strings cannot fail
	fmt.Fprintf(out, "%s\n", data)
}

// runChild runs one workload in a fresh process of this binary, the way
// the driver does, and reads its result file back.
func runChild(workload string, seed uint64, seconds float64, outDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("child-%s-%d.json", workload, seed))
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-json", path)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil { // Run waits for the child to end
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	defer os.Remove(path)
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &f); err != nil || len(f.Runs) != 1 {
		return nil, fmt.Errorf("%s: bad result file (%v)", path, err)
	}
	return f.Runs[0], nil
}

// runSet runs all five workloads once, progress on standard error.
func runSet(seed uint64, seconds float64, outDir string) ([]*result, error) {
	var runs []*result
	for _, w := range workloadNames {
		t := time.Now()
		res, err := runChild(w, seed, seconds, outDir)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "  %-14s seed=%d ops_per_s=%.6g rel_cost_x=%.4g (%.1fs)\n",
			w, seed, res.EndToEnd["ops_per_s"], res.EndToEnd["rel_cost_x"], time.Since(t).Seconds())
		runs = append(runs, res)
	}
	return runs, nil
}

// ruleBound is how a bound follows from A/A: twice the worst difference
// seen, at least 5 % and at most the 25 % the benchmark contract allows.
func ruleBound(worstDiff float64) float64 { return min(max(2*worstDiff, 0.05), 0.25) }

// runAA measures the same code n times, each set with another seed, and
// prints AA.md: for every workload × end-to-end metric the sets' medians,
// their largest relative difference, (max − min) ÷ median, and the bound.
// A gated pairing whose difference exceeds its bound fails the A/A. The
// quartile spread and the half-to-half shift, which the benchmark driver
// tests instead, are shown beside it; setup_s, whose spread the driver
// does not test, is held to its half-to-half shift here too.
func runAA(n int, seconds float64, outDir string, out io.Writer) error {
	sets := make([][]*result, n)
	for i := range sets {
		fmt.Fprintf(os.Stderr, "set %d of %d\n", i+1, n)
		var err error
		if sets[i], err = runSet(uint64(i+1), seconds, outDir); err != nil {
			return err
		}
	}
	e := sets[0][0].Env
	fmt.Fprintf(out, "# A/A: %d sets of the same code\n\n", n)
	fmt.Fprintf(out, "Written by `bash bench/run.sh -aa %d`: commit `%s`, %s, nproc %d, GOMAXPROCS %d, %d cycles of %g+%g ms, seeds 1..%d, one fresh process per run.\n\n",
		n, e.Commit, e.GoVersion, e.NProc, e.GOMAXPROCS, e.Cycles, e.PhaseMS, e.ProbeMS, n)
	fmt.Fprintf(out, "`max diff` is (max − min) ÷ median of the sets' values and must stay within `bound`: a row that does not is `OVER` and fails the A/A. `iqr` (quartile spread ÷ median, quartiles as Python's `statistics.quantiles`) and `half/half` (how much worse the second half's median is than the first's) are what the benchmark driver holds to the same bound. `setup_s` is tested on `half/half` alone, as the driver tests it: a set-up is 10 ms to 1.5 s at the start of a process, and single sets differ by a third when the host is busy. `%s` is a diagnostic (README, \"inproc_hot is a diagnostic\"): its rows are shown, not tested.\n\n", wlHot)
	fmt.Fprintf(out, "| workload | metric | unit | sets | max diff | iqr | half/half | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	over := 0
	worst, worstIQR, worstShift := map[string]float64{}, map[string]float64{}, map[string]float64{}
	worstAt := map[string]string{}
	for wi, w := range workloadNames {
		for _, m := range endToEnd {
			vals := make([]float64, n)
			cells := make([]string, n)
			for i := range sets {
				vals[i] = sets[i][wi].EndToEnd[m.Name]
				cells[i] = fmt.Sprintf("%.4g", vals[i])
			}
			diff := (slices.Max(vals) - slices.Min(vals)) / math.Abs(median(vals))
			shift := m.worse(median(vals[:n/2]), median(vals[n/2:]))
			tested := diff
			if m.Name == "setup_s" {
				tested = shift
			}
			verdict := "ok"
			switch {
			case !gated(w):
				verdict = "diagnostic"
			case tested > m.Bound:
				verdict = "OVER"
				over++
			}
			iqr := quartileSpread(vals)
			if gated(w) {
				if diff > worst[m.Name] {
					worst[m.Name], worstAt[m.Name] = diff, w
				}
				worstIQR[m.Name] = max(worstIQR[m.Name], iqr)
				worstShift[m.Name] = max(worstShift[m.Name], math.Abs(shift))
			}
			fmt.Fprintf(out, "| %s | %s | %s | %s | %.1f %% | %.1f %% | %+.1f %% | %.0f %% | %s |\n",
				w, m.Name, m.Unit, strings.Join(cells, " "), diff*100, iqr*100, shift*100, m.Bound*100, verdict)
		}
	}
	fmt.Fprintf(out, "\n%d gated pairings are `OVER`.\n", over)
	fmt.Fprintf(out, "\n## The bounds\n\nThe rule is max(2 × the worst `max diff` of a gated workload, 5 %%), at most the 25 %% the benchmark contract allows. The worst `iqr` and `half/half` (either direction) are what the driver will hold the bound to.\n\n")
	fmt.Fprintf(out, "| metric | worst max diff | on | rule gives | worst iqr | worst half/half | bound in force |\n|---|---|---|---|---|---|---|\n")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "| `%s` | %.1f %% | `%s` | %.0f %% | %.1f %% | %.1f %% | %.0f %% |\n", m.Name, worst[m.Name]*100, worstAt[m.Name],
			ruleBound(worst[m.Name])*100, worstIQR[m.Name]*100, worstShift[m.Name]*100, m.Bound*100)
	}
	if over > 0 {
		return fmt.Errorf("A/A: %d workload × metric pairings differ by more than their bound", over)
	}
	return nil
}

// compareFiles prints one row per workload × end-to-end metric: base, new,
// their ratio, the bound and a verdict. A pairing is unresolved when the
// machine, not the code, may have moved it: either side's cycles spread
// wider than the bound (cycle_iqr_share), or the probe's own speed shifted
// by more than the bound between the two files. Files measured with
// different cycle counts or lengths, or on another CPU count, are refused.
func compareFiles(basePath, newPath string, out io.Writer) error {
	load := func(path string) (map[string]*result, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		byName := map[string]*result{}
		for _, r := range f.Runs {
			if !r.Trace {
				byName[r.Workload] = r
			}
		}
		return byName, nil
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cur, err := load(newPath)
	if err != nil {
		return err
	}
	shape := func(e env) string {
		return fmt.Sprintf("%d cycles of %g+%g ms, GOMAXPROCS %d", e.Cycles, e.PhaseMS, e.ProbeMS, e.GOMAXPROCS)
	}
	for _, w := range workloadNames {
		if a, b := base[w], cur[w]; a != nil && b != nil && shape(a.Env) != shape(b.Env) {
			return fmt.Errorf("%s was not measured alike: %s in %s, %s in %s", w, shape(a.Env), basePath, shape(b.Env), newPath)
		}
	}
	fmt.Fprintf(out, "%-14s %-14s %12s %12s %14s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	worse := 0
	for _, w := range workloadNames {
		a, b := base[w], cur[w]
		if a == nil || b == nil {
			continue
		}
		for _, m := range endToEnd {
			va, vb := a.EndToEnd[m.Name], b.EndToEnd[m.Name]
			// setup_s and live_heap_kb come from set-up, not from cycles.
			noisy := m.Name != "setup_s" && m.Name != "live_heap_kb" &&
				(max(a.PerLayer["cycle_iqr_share"], b.PerLayer["cycle_iqr_share"]) > m.Bound ||
					math.Abs(b.PerLayer["probe_ns"]/a.PerLayer["probe_ns"]-1) > m.Bound)
			verdict := "same"
			switch d := m.worse(va, vb); {
			case noisy:
				verdict = "unresolved"
			case d > m.Bound:
				verdict = "worse"
				if gated(w) {
					worse++
				}
			case d < -m.Bound:
				verdict = "better"
			}
			if !gated(w) {
				verdict += " (diagnostic)"
			}
			fmt.Fprintf(out, "%-14s %-14s %12.6g %12.6g %8.3f of %-5.4g %5.0f%%  %s\n",
				w, m.Name, va, vb, vb/va, va, m.Bound*100, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d pairings are worse than their bound", worse)
	}
	return nil
}
