package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestDocBugNamesExist is the doc-command lint: every `lockstress -bug
// <name>` the three top-level documents mention must still be a scenario
// this command runs, and -bug all must run every scenario exactly once.
func TestDocBugNamesExist(t *testing.T) {
	bug := regexp.MustCompile(`lockstress -bug ([a-z-]+)`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range bug.FindAllStringSubmatch(string(data), -1) {
			if _, ok := scenarios[m[1]]; !ok && m[1] != "all" {
				t.Errorf("%s mentions lockstress -bug %s, which does not exist", doc, m[1])
			}
		}
	}
	if len(bugOrder) != len(scenarios) {
		t.Errorf("-bug all runs %d scenarios, the table has %d", len(bugOrder), len(scenarios))
	}
	for _, name := range bugOrder {
		if _, ok := scenarios[name]; !ok {
			t.Errorf("-bug all lists %q, which is not in the table", name)
		}
	}
}
