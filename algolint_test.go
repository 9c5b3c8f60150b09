package gls_test

import (
	"go/ast"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// paperTable1 is the paper's Table 1 by constant name: the exclusive
// algorithms GLS offers whether or not a program names one.
var paperTable1 = []string{"TAS", "TTAS", "Ticket", "MCS", "CLH", "Mutex"}

// TestAlgorithmsHaveCallers is the algorithm guard, the lock-family twin of
// TestGLKConfigFieldsHaveCallers (ROADMAP aim 2: an algorithm no program
// picks is code nothing exercises). Every locks.Algorithm outside the
// paper's Table 1, and every locks.RWAlgorithm, must be used by some
// non-test file of the module outside package locks: as the constant
// (locks.RWStripedAlgo) or through its constructor, New plus the name
// without the Algo suffix (locks.NewRWStriped).
func TestAlgorithmsHaveCallers(t *testing.T) {
	consts := algorithmConsts(t)
	table1 := map[string]bool{}
	for _, name := range paperTable1 {
		if !slices.Contains(consts["Algorithm"], name) {
			t.Fatalf("locks.%s is not a locks.Algorithm constant (renamed?)", name)
		}
		table1[name] = true
	}
	used := map[string]bool{}
	eachProgramFile(t, "locks", func(f *ast.File) { collectLocksRefs(f, used) })
	for _, typ := range []string{"Algorithm", "RWAlgorithm"} {
		for _, name := range consts[typ] {
			ctor := "New" + strings.TrimSuffix(name, "Algo")
			if !table1[name] && !used[name] && !used[ctor] {
				t.Errorf("locks.%s is used by no program in the module, as the constant or through %s (only tests, if anything): delete it or give it a caller", name, ctor)
			}
		}
	}
}

// algorithmConsts lists package locks' constants of type Algorithm and
// RWAlgorithm by type, following iota's implicit repetition of the type.
func algorithmConsts(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, f := range parseProgram(t, "locks") {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			typ := ""
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if vs.Type != nil {
					typ = ""
					if id, ok := vs.Type.(*ast.Ident); ok {
						typ = id.Name
					}
				} else if len(vs.Values) > 0 {
					typ = "" // an untyped constant
				}
				if typ == "Algorithm" || typ == "RWAlgorithm" {
					for _, name := range vs.Names {
						out[typ] = append(out[typ], name.Name)
					}
				}
			}
		}
	}
	if len(out["Algorithm"]) == 0 || len(out["RWAlgorithm"]) == 0 {
		t.Fatalf("found no locks.Algorithm or locks.RWAlgorithm constants (renamed?): %v", out)
	}
	return out
}

// collectLocksRefs records every name f selects from package locks.
func collectLocksRefs(f *ast.File, used map[string]bool) {
	pkg := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "gls/locks" {
			pkg = "locks"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
				used[sel.Sel.Name] = true
			}
		}
		return true
	})
}
