package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocCommandsExist is the doc-command lint: every `glsd -flag` the
// three top-level documents and this package's own usage comment mention,
// and every flag README's `cmd/glsd` entry lists, must exist, so a command
// they quote still runs. Removing a flag fails here until the docs follow.
func TestDocCommandsExist(t *testing.T) {
	command := regexp.MustCompile("glsd +\\[?-[^`\n|;()]*")
	dashed := regexp.MustCompile(`(^|[\s/\[])-([a-z][a-z-]*)`)
	entry := regexp.MustCompile("(?s)\n- `cmd/glsd`.*?\n- ")
	listed := regexp.MustCompile("`-([a-z][a-z-]*)`")
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "cmd/glsd/main.go"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		var named [][]string
		for _, cmd := range command.FindAllString(string(data), -1) {
			named = append(named, dashed.FindAllStringSubmatch(cmd, -1)...)
		}
		named = append(named, listed.FindAllStringSubmatch(entry.FindString(string(data)), -1)...)
		for _, m := range named {
			if name := m[len(m)-1]; flag.Lookup(name) == nil {
				t.Errorf("%s names glsd -%s, which glsd does not have", doc, name)
			}
		}
	}
}

// TestFlagSet pins glsd's flags to the seven it documents, and checks that
// a command line naming anything else is refused with package flag's own
// error, not accepted and ignored.
func TestFlagSet(t *testing.T) {
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	if want := []string{"addr", "max-ttl", "queue", "quiet", "stats", "sweep", "ttl"}; !slices.Equal(got, want) {
		t.Errorf("glsd flags = %v, want %v", got, want)
	}

	flag.CommandLine.Init("glsd", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	defer func() {
		flag.CommandLine.Init(os.Args[0], flag.ExitOnError)
		flag.CommandLine.SetOutput(nil)
	}()
	err := flag.CommandLine.Parse([]string{"-tables", "4"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -tables") {
		t.Errorf("parsing an undefined flag: %v, want package flag's not-defined error", err)
	}
}
