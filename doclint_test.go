package gls_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docLintDirs are the packages held to the exported-docs rule. The list is
// the public surface plus the internal packages DESIGN.md leans on; new
// packages should be added here as they appear.
var docLintDirs = []string{
	".",
	"glk",
	"locks",
	"server",
	"client",
	"telemetry",
	"telemetry/telemetryhttp",
	"internal/stripe",
}

// TestDocComments is the doc-lint step (the revive `exported` rule,
// implemented over go/ast so CI needs no extra tooling): every package in
// docLintDirs must carry a package doc comment, and every exported
// top-level identifier — functions, methods on exported types, types,
// consts, and vars — must have a doc comment. godoc is the project's API
// reference; an undocumented export is a hole in it.
func TestDocComments(t *testing.T) {
	for _, dir := range docLintDirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir,
			func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") },
			parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			hasPkgDoc := false
			for _, f := range pkg.Files {
				if f.Doc != nil {
					hasPkgDoc = true
				}
			}
			if !hasPkgDoc {
				t.Errorf("package %s (%s) has no package doc comment", name, dir)
			}
			for path, f := range pkg.Files {
				for _, decl := range f.Decls {
					lintDecl(t, fset, path, decl)
				}
			}
		}
	}
}

// lintDecl reports every undocumented exported identifier in one top-level
// declaration.
func lintDecl(t *testing.T, fset *token.FileSet, path string, decl ast.Decl) {
	pos := func(n ast.Node) string { return fset.Position(n.Pos()).String() }
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return
		}
		if d.Recv != nil && !exportedReceiver(d.Recv) {
			// Exported-looking method on an unexported type: not part of
			// the package's godoc surface.
			return
		}
		if d.Doc == nil {
			t.Errorf("%s: exported %s %s has no doc comment", pos(d), funcKind(d), d.Name.Name)
		}
	case *ast.GenDecl:
		// A doc comment on the group ("// The three GLK modes.") documents
		// every spec in it; otherwise each exported spec needs its own.
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					t.Errorf("%s: exported type %s has no doc comment", pos(s), s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						t.Errorf("%s: exported %s %s has no doc comment", pos(s), declKind(d.Tok), n.Name)
					}
				}
			}
		}
	}
}

// exportedReceiver reports whether a method's receiver names an exported
// type.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// funcKind names a FuncDecl for the error message.
func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// declKind names a GenDecl token for the error message.
func declKind(tok token.Token) string {
	return strings.ToLower(tok.String())
}

// TestCIPatternsResolve keeps the CI workflow from naming a test that is
// gone: a -run, -skip or -bench pattern that matches nothing passes
// silently. Every top-level | alternative of the pattern's first /-element
// must match a Test, Fuzz or Example function (-run, -skip) or a Benchmark
// function (-bench) declared in the packages that go test command line
// names. "^$", the way to select nothing, is exempt.
func TestCIPatternsResolve(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	src, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for n, line := range strings.Split(string(src), "\n") {
		base := "."
		for _, cmd := range strings.Split(line, "&&") {
			args := shellWords(cmd)
			if i := slices.Index(args, "run:"); i >= 0 {
				args = args[i+1:]
			}
			if len(args) == 2 && args[0] == "cd" {
				base = filepath.Join(base, args[1])
				continue
			}
			if len(args) < 2 || args[0] != "go" || args[1] != "test" {
				continue
			}
			flags, pkgs := goTestArgs(args[2:])
			if len(flags) > 0 {
				checked += checkPatterns(t, fmt.Sprintf("%s:%d", workflow, n+1), flags, pkgs, testFuncs(t, base, pkgs))
			}
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no -run, -skip or -bench pattern found", workflow)
	}
}

// TestExperimentsEntryPointsResolve holds EXPERIMENTS.md's two entry-point
// tables, the figure map and "Beyond the paper's figures", to the same rule:
// every -run, -skip or -bench pattern of a `go test` command in a row must
// match a function of the packages it names, and every `BenchmarkX` a row
// names must be declared in that row's packages (the root package if the
// row has no go test command). The history sections below the tables name
// removed benchmarks on purpose and are not checked.
func TestExperimentsEntryPointsResolve(t *testing.T) {
	src, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	tables, _, ok := strings.Cut(string(src), "\n## Perf trajectory protocol")
	if !ok {
		t.Fatal("EXPERIMENTS.md: no \"## Perf trajectory protocol\" heading below the entry-point tables")
	}
	span := regexp.MustCompile("`([^`]+)`")
	benchName := regexp.MustCompile(`^Benchmark\w+$`)
	checked := 0
	for n, line := range strings.Split(tables, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		where := fmt.Sprintf("EXPERIMENTS.md:%d", n+1)
		var rowPkgs, names []string
		for _, m := range span.FindAllStringSubmatch(line, -1) {
			if args := shellWords(m[1]); len(args) > 2 && args[0] == "go" && args[1] == "test" {
				flags, pkgs := goTestArgs(args[2:])
				rowPkgs = append(rowPkgs, pkgs...)
				checked += checkPatterns(t, where, flags, pkgs, testFuncs(t, ".", pkgs))
			} else if benchName.MatchString(m[1]) {
				names = append(names, m[1])
			}
		}
		if len(rowPkgs) == 0 {
			rowPkgs = []string{"."}
		}
		funcs := testFuncs(t, ".", rowPkgs)
		for _, name := range names {
			checked++
			if !slices.Contains(funcs, name) {
				t.Errorf("%s: %s is not declared in %v", where, name, rowPkgs)
			}
		}
	}
	if checked == 0 {
		t.Fatal("EXPERIMENTS.md: no go test pattern or benchmark name found in the entry-point tables")
	}
}

// goTestArgs splits the arguments after "go test" into the -run, -skip and
// -bench patterns and the package patterns.
func goTestArgs(args []string) (flags map[string]string, pkgs []string) {
	flags = map[string]string{}
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			pkgs = append(pkgs, a)
			continue
		}
		name, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if !hasVal && !goTestBoolFlags[name] && i+1 < len(args) {
			i++
			val = args[i]
		}
		if name == "run" || name == "skip" || name == "bench" {
			flags[name] = val
		}
	}
	return flags, pkgs
}

// checkPatterns reports each top-level | alternative of a pattern's first
// /-element that matches no Test, Fuzz or Example function of funcs (-run,
// -skip) or no Benchmark function (-bench), and returns how many
// alternatives it checked. where names the line in the report.
func checkPatterns(t *testing.T, where string, flags map[string]string, pkgs, funcs []string) int {
	checked := 0
	for flag, pattern := range flags {
		prefixes := []string{"Test", "Fuzz", "Example"}
		if flag == "bench" {
			prefixes = []string{"Benchmark"}
		}
		for _, alt := range splitTopLevel(splitTopLevel(pattern, '/')[0], '|') {
			if alt == "^$" {
				continue
			}
			checked++
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%s: -%s alternative %q: %v", where, flag, alt, err)
				continue
			}
			if !slices.ContainsFunc(funcs, func(f string) bool {
				return re.MatchString(f) && slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(f, p) })
			}) {
				t.Errorf("%s: -%s alternative %q matches no %s function in %v", where, flag, alt, strings.Join(prefixes, "/"), pkgs)
			}
		}
	}
	return checked
}

// goTestBoolFlags are the go test flags that take no value after a space.
var goTestBoolFlags = map[string]bool{
	"race": true, "short": true, "v": true, "json": true, "failfast": true,
	"cover": true, "benchmem": true, "msan": true, "asan": true,
}

// shellWords splits one line of shell into words, honouring single and
// double quotes — enough for the go test lines of the CI workflow.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			w.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words, inWord = append(words, w.String()), false
				w.Reset()
			}
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

// splitTopLevel splits a regular expression at each sep outside brackets
// and parentheses.
func splitTopLevel(re string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, re[start:])
}

// testFuncs lists the top-level functions declared in the _test.go files of
// the packages that pkgs (go test's package patterns, relative to base)
// name. A /... pattern stops at testdata and at nested modules, as go does.
func testFuncs(t *testing.T, base string, pkgs []string) []string {
	var dirs []string
	for _, p := range pkgs {
		root, recursive := strings.CutSuffix(p, "/...")
		root = filepath.Join(base, root)
		if !recursive {
			dirs = append(dirs, root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != root {
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	var funcs []string
	for _, dir := range dirs {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir,
			func(fi fs.FileInfo) bool { return strings.HasSuffix(fi.Name(), "_test.go") }, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
						funcs = append(funcs, fd.Name.Name)
					}
				}
			}
		}
	}
	return funcs
}
