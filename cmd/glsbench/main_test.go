package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// quickOpts are the smallest possible run parameters: this test exists so
// the figure-regeneration paths cannot rot, not to produce numbers.
func quickOpts() opts {
	return opts{
		duration:   10 * time.Millisecond,
		reps:       1,
		maxThreads: 3,
		quick:      true,
	}
}

// TestEveryFigureRuns executes every registered figure once with tiny
// parameters.
func TestEveryFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test is slow")
	}
	o := quickOpts()
	for id, f := range figures {
		// Figures 14/15 run the five-system suites: the most expensive.
		// They share runSystemsFigure, so one of them suffices here.
		if id == 15 {
			continue
		}
		id, f := id, f
		t.Run(f.title, func(t *testing.T) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				f.run(o)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Minute):
				t.Fatalf("figure %d wedged", id)
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
		for _, part := range splitComma(s) {
			if part == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("knownFigures() = %q missing %s", s, want)
		}
	}
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
