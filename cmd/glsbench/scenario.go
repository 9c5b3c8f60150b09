package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"gls/internal/figures"
	"gls/internal/scenario"
)

// The -scenario family is glscn, the trace-driven regression surface
// (DESIGN.md §15): each committed .scn file is expanded into a
// deterministic op plan (same -seed ⇒ byte-identical replay log) and
// executed open-loop against the in-process Service or, with -wire, a
// fresh glsd on loopback — then every phase's declared assertion lanes
// (tail latency, grant and timeout counts, adaptation arcs) are
// evaluated. The exit code says whether the lanes held; BENCH_scenario.json
// is the committed full-mode run of the golden corpus.

// scnList collects repeated -scenario flags in order.
type scnList []string

func (l *scnList) String() string { return strings.Join(*l, ",") }

// Set appends one scenario file path.
func (l *scnList) Set(s string) error {
	if s == "" {
		return fmt.Errorf("empty scenario path")
	}
	*l = append(*l, s)
	return nil
}

// scenarioReport is the BENCH_scenario.json schema: one engine report per
// scenario file, in run order.
type scenarioReport struct {
	GeneratedBy string             `json:"generated_by"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Quick       bool               `json:"quick,omitempty"`
	Runs        []*scenario.Report `json:"runs"`
}

// runScenarios executes each scenario file and writes the optional
// artifacts: the replay log (single scenario only) and the JSON report.
// It returns an error if any declared lane failed.
func runScenarios(files []string, wire bool, seed uint64, replayPath, jsonPath string, progress io.Writer, s figures.Scale) error {
	if replayPath != "" && len(files) != 1 {
		return fmt.Errorf("-replay records one scenario's plan; got %d -scenario flags", len(files))
	}
	report := scenarioReport{
		GeneratedBy: "glsbench -scenario",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Quick:       s.Quick,
	}
	var failures []string
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		scn, err := scenario.ParseScenario(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if s.Quick {
			scn = scn.Quick()
		}
		plan := scenario.BuildPlan(scn, seed)
		if replayPath != "" {
			if err := writeReplay(plan, replayPath); err != nil {
				return fmt.Errorf("%s: replay log: %w", path, err)
			}
		}
		mode := "service"
		if wire {
			mode = "wire"
		}
		fmt.Fprintf(progress, "-- scenario %s (%s, seed %d, %d phases) --\n", scn.Name, mode, plan.Seed, len(scn.Phases))
		rep, err := scenario.RunRig(plan, wire, progress)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		report.Runs = append(report.Runs, rep)
		for _, f := range rep.Failures() {
			failures = append(failures, scn.Name+": "+f)
		}
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, report); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d assertion lane(s) failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// writeReplay writes the plan's replay log to path ("-" for stdout).
func writeReplay(plan *scenario.Plan, path string) error {
	if path == "-" {
		return plan.WriteReplay(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := plan.WriteReplay(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
