package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gls/internal/figures"
)

// TestEveryFigureRuns prints every figure through glsbench's printer once
// at the smallest scale, so no figure's run or print path can rot. Figure.Run
// checks the workloads and the tables, so a broken invariant or a table that
// is not rectangular or holds a value that is not finite or is negative
// fails here.
func TestEveryFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test is slow")
	}
	s := figures.Scale{Duration: 10 * time.Millisecond, Reps: 1, MaxThreads: 3, Quick: true}
	for _, f := range figures.All {
		// Figure 15 re-runs figure 14's suite, the most expensive one.
		if f.Number == 15 {
			continue
		}
		t.Run(f.Title, func(t *testing.T) {
			var out strings.Builder
			done := make(chan error, 1)
			go func() { done <- runFigure(&out, f, s) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Minute):
				t.Fatalf("figure %d wedged", f.Number)
			}
			if !strings.Contains(out.String(), f.Paper) {
				t.Errorf("output lacks the paper line %q:\n%s", f.Paper, out.String())
			}
		})
	}
}

// TestDocCommandsExist is the doc-command lint: every `glsbench -flag` and
// every BENCH_*.json the three top-level documents mention must still
// exist, so a number they quote stays reproducible from a command that
// runs. Removing a flag or a trajectory file fails here until the docs
// follow.
func TestDocCommandsExist(t *testing.T) {
	command := regexp.MustCompile("glsbench[^`\n|;()]*")
	dashed := regexp.MustCompile(`(^|[\s/])-([a-z]+)`)
	benchFile := regexp.MustCompile(`BENCH_[a-z_]+\.json`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range command.FindAllString(string(data), -1) {
			for _, m := range dashed.FindAllStringSubmatch(cmd, -1) {
				if flag.Lookup(m[2]) == nil {
					t.Errorf("%s: %q names -%s, which glsbench does not have", doc, cmd, m[2])
				}
			}
		}
		for _, f := range benchFile.FindAllString(string(data), -1) {
			if _, err := os.Stat(filepath.Join("..", "..", f)); err != nil {
				t.Errorf("%s mentions %s, which is not committed", doc, f)
			}
		}
	}
}

func TestFigSetFlag(t *testing.T) {
	fs := figSet{}
	if err := fs.Set("8"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Set("nonsense"); err == nil {
		t.Fatal("accepted non-numeric figure")
	}
	if err := fs.Set("2"); err == nil {
		t.Fatal("accepted unknown figure 2")
	}
	if !fs[8] {
		t.Fatal("figure 8 not recorded")
	}
	if fs.String() != "8" {
		t.Fatalf("String = %q", fs.String())
	}
}

func TestKnownFiguresListsAll(t *testing.T) {
	s := knownFigures()
	for _, want := range []string{"1", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15"} {
		found := false
		for _, part := range strings.Split(s, ",") {
			if part == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("knownFigures() = %q missing %s", s, want)
		}
	}
}
