// Golden-scenario regression suite (DESIGN.md §15). Every committed
// .scn under testdata/scenarios is parsed, quick-scaled, and executed
// in-process; a subset re-runs over a loopback glsd so the wire path is
// held to the same lanes. A lane failure here means a tail-latency or
// fairness regression the scenario corpus was written to catch — fix
// the regression, don't loosen the lane.
//
// The quick transform and the rig are internal/scenario's (Quick, RunRig),
// the ones `glsbench -scenario -quick` calls, so the command and this suite
// exercise identical plans for a given seed.
package gls_test

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gls/internal/scenario"
)

const goldenDir = "testdata/scenarios"

// goldenScenarios loads and quick-scales every committed scenario.
func goldenScenarios(t *testing.T) map[string]*scenario.Scenario {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(goldenDir, "*.scn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("golden corpus has %d scenarios, want >= 4: %v", len(paths), paths)
	}
	sort.Strings(paths)
	out := make(map[string]*scenario.Scenario, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.ParseScenario(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[strings.TrimSuffix(filepath.Base(p), ".scn")] = s.Quick()
	}
	return out
}

// runGolden runs s on the shared rig under the scenario's own seed.
func runGolden(t *testing.T, s *scenario.Scenario, wire bool) *scenario.Report {
	t.Helper()
	rep, err := scenario.RunRig(scenario.BuildPlan(s, 0), wire, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestGoldenScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("golden scenarios run real-time phases; skipped in -short")
	}
	for name, s := range goldenScenarios(t) {
		s := s
		t.Run(name, func(t *testing.T) {
			rep := runGolden(t, s, false)
			if !rep.Pass {
				t.Fatalf("lanes failed:\n  %s", strings.Join(rep.Failures(), "\n  "))
			}
		})
	}
}

// TestGoldenScenariosWire re-runs the deterministic-count scenarios over
// a loopback glsd. The latency-lane scenarios (diurnal, tenantskew) stay
// in-process here: on a 1-CPU host the server pool's spin-waiters can
// starve the holder and blow the tail bounds; `glsbench -scenario -wire`
// covers them where CI grants more cores.
func TestGoldenScenariosWire(t *testing.T) {
	if testing.Short() {
		t.Skip("golden scenarios run real-time phases; skipped in -short")
	}
	all := goldenScenarios(t)
	for _, name := range []string{"flashcrowd", "blocker"} {
		s, ok := all[name]
		if !ok {
			t.Fatalf("golden corpus lost %s.scn", name)
		}
		t.Run(name, func(t *testing.T) {
			rep := runGolden(t, s, true)
			if !rep.Pass {
				t.Fatalf("lanes failed:\n  %s", strings.Join(rep.Failures(), "\n  "))
			}
		})
	}
}
