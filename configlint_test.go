package gls_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// glkConfigTypes are the configuration structs a program hands package glk.
var glkConfigTypes = []string{"Config", "RWConfig"}

// TestGLKConfigFieldsHaveCallers is the knob guard (ROADMAP aim 2: a knob no
// program sets is a path nothing exercises). Every exported field of
// glk.Config and glk.RWConfig must be set by some non-test file of the
// module outside package glk: as a key in a glk.Config{…} or
// glk.RWConfig{…} literal, or by an assignment to the field of a variable
// declared as one (cfg.Stats = …). Tests do not count — they can justify a
// constant, not a configuration surface.
func TestGLKConfigFieldsHaveCallers(t *testing.T) {
	fields := exportedFields(t, "glk", glkConfigTypes)
	set := map[string]map[string]bool{}
	for _, typ := range glkConfigTypes {
		set[typ] = map[string]bool{}
	}
	eachProgramFile(t, "glk", func(f *ast.File) { collectConfigSets(f, set) })
	for _, typ := range glkConfigTypes {
		for _, field := range fields[typ] {
			if !set[typ][field] {
				t.Errorf("glk.%s.%s is set by no program in the module (only tests, if anything): make it a constant or give it a caller", typ, field)
			}
		}
	}
}

// eachProgramFile parses every non-test Go file of the module outside the
// package directory skip and hands it to visit. bench is its own module and
// testdata holds no program, so both stay out.
func eachProgramFile(t *testing.T, skip string, visit func(*ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench" || path == skip) {
			return filepath.SkipDir
		}
		for _, f := range parseProgram(t, path) {
			visit(f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// parseProgram parses the non-test Go files of dir.
func parseProgram(t *testing.T, dir string) []*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir,
		func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return files
}

// exportedFields lists the exported fields of the named struct types in dir.
func exportedFields(t *testing.T, dir string, types []string) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, f := range parseProgram(t, dir) {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					if name.IsExported() {
						out[ts.Name.Name] = append(out[ts.Name.Name], name.Name)
					}
				}
			}
			return false
		})
	}
	for _, typ := range types {
		if len(out[typ]) == 0 {
			t.Fatalf("glk.%s has no exported fields (renamed?)", typ)
		}
		sort.Strings(out[typ])
	}
	return out
}

// collectConfigSets records into set[type][field] every field f sets on a
// glk config type.
func collectConfigSets(f *ast.File, set map[string]map[string]bool) {
	glk := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "gls/glk" {
			glk = "glk"
			if imp.Name != nil {
				glk = imp.Name.Name
			}
		}
	}
	if glk == "" {
		return
	}
	// configType names the glk config type expr denotes, through a pointer
	// and an address-of, or "".
	configType := func(expr ast.Expr) string {
		for {
			switch e := expr.(type) {
			case *ast.StarExpr:
				expr = e.X
			case *ast.UnaryExpr:
				expr = e.X
			case *ast.CompositeLit:
				expr = e.Type
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && x.Name == glk && set[e.Sel.Name] != nil {
					return e.Sel.Name
				}
				return ""
			default:
				return ""
			}
		}
	}
	// declaredType resolves a variable to the glk config type it was
	// declared with: var cfg glk.RWConfig, cfg := &glk.Config{…}, or a
	// parameter cfg *glk.Config.
	declaredType := func(id *ast.Ident) string {
		if id.Obj == nil {
			return ""
		}
		switch d := id.Obj.Decl.(type) {
		case *ast.ValueSpec:
			if d.Type != nil {
				return configType(d.Type)
			}
			for i, n := range d.Names {
				if n.Name == id.Name && i < len(d.Values) {
					return configType(d.Values[i])
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range d.Lhs {
				if n, ok := lhs.(*ast.Ident); ok && n.Name == id.Name && i < len(d.Rhs) {
					return configType(d.Rhs[i])
				}
			}
		case *ast.Field:
			return configType(d.Type)
		}
		return ""
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if typ := configType(n.Type); typ != "" {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							set[typ][key.Name] = true
						}
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if x, ok := sel.X.(*ast.Ident); ok {
					if typ := declaredType(x); typ != "" {
						set[typ][sel.Sel.Name] = true
					}
				}
			}
		}
		return true
	})
}
