package gls_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// callerExemptions are the declarations the caller lint lets stand without a
// program caller, one line each with its reason. Keys are the names the lint
// prints: package path, then type and member.
var callerExemptions = map[string]string{
	"gls/internal/apps/appsync.GLK.Locks":           "test seam: the per-role GLK locks whose modes and stats tests inspect",
	"gls/internal/apps/appsync.GLS.Key":             "test seam: the service key of a role, so a test can tell which lock an issue names",
	"gls/internal/apps/litesql.DB.CheckConsistency": "test oracle: the TPC-C invariants the concurrency tests assert",
	"gls/internal/clht.Table.Resizes":               "test seam: lets the resize tests see that a resize happened",
	"gls/internal/sysmon.Monitor.Hint":              "test seam: reads back the hint a test or the harness set",
	"gls/internal/sysmon.Monitor.Rounds":            "test seam: tests wait for the sampler to finish rounds",
	"gls/internal/sysmon.StopShared":                "test seam: stops the shared sampler so a test can start a fresh one",
	"gls/internal/xrand.Zipf.Prob":                  "test oracle: the distribution the sampling tests compare against",
}

// paperTable1 is the paper's Table 1 by constant name: the exclusive
// algorithms GLS offers whether or not a program names one.
var paperTable1 = []string{"TAS", "TTAS", "Ticket", "MCS", "CLH", "Mutex"}

// TestCallers is the caller lint (ROADMAP aim 2: a knob, algorithm or
// declaration no program reaches is code nothing exercises). It type-checks
// the module's non-test Go as one program and fails on three rules:
//
//   - options: an exported field of an exported …Options or …Config struct
//     that no non-test file outside its package sets, in a composite
//     literal, by assignment, or through its address (flag.IntVar(&o.F, …));
//   - algorithms: a locks.Algorithm outside Table 1, or any
//     locks.RWAlgorithm, that no non-test file outside package locks uses as
//     the constant or through New plus its name without the Algo suffix
//     (locks.NewRWStriped);
//   - declarations: a func, method, type, const or var declared in an
//     internal package, or unexported anywhere, that no non-test code uses.
//     A use inside the declaration itself (recursion, a type's own methods)
//     does not count; a method that satisfies an interface the module uses
//     does.
//
// Tests do not count: they can justify a constant, not a configuration
// surface or an operation.
func TestCallers(t *testing.T) {
	prog := loadProgram(t)
	found := map[string]string{}
	report := func(name, msg string) { found[name] = msg }
	t.Run("options", func(t *testing.T) { prog.lintOptions(report) })
	t.Run("algorithms", func(t *testing.T) { prog.lintAlgorithms(t, report) })
	t.Run("declarations", func(t *testing.T) { prog.lintDeclarations(report) })
	for name, reason := range callerExemptions {
		if _, ok := found[name]; !ok {
			t.Errorf("stale exemption %s (%s): it has a program caller now, or is gone", name, reason)
		}
		delete(found, name)
	}
	names := make([]string, 0, len(found))
	for name := range found {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Errorf("%s %s: delete it, give it a caller, or exempt it with a reason", name, found[name])
	}
}

// typedPackage is one package of the module, type-checked without its tests.
type typedPackage struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// typedProgram is the module's non-test code, type-checked as one program so
// that an object declared in one package is the same object where another
// package uses it.
type typedProgram struct {
	fset  *token.FileSet
	dirs  map[string]string // import path → directory
	pkgs  map[string]*typedPackage
	order []*typedPackage // dependencies first
	std   types.Importer
}

var (
	programOnce sync.Once
	program     *typedProgram
	programErr  error
)

// loadProgram type-checks every non-test Go file of the module, run from the
// repository root, once per test binary. bench is its own module and
// testdata holds no program, so both stay out. The standard library is
// type-checked from source, so no export data or network is needed.
func loadProgram(t *testing.T) *typedProgram {
	t.Helper()
	programOnce.Do(func() {
		p := &typedProgram{fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*typedPackage{}}
		p.std = importer.ForCompiler(p.fset, "source", nil)
		programErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench") {
				return filepath.SkipDir
			}
			p.dirs[filepath.ToSlash(filepath.Join("gls", path))] = path
			return nil
		})
		paths := make([]string, 0, len(p.dirs))
		for path := range p.dirs {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			if programErr == nil {
				_, programErr = p.Import(path)
			}
		}
		program = p
	})
	if programErr != nil {
		t.Fatal(programErr)
	}
	return program
}

// Import type-checks a package of the module on first use and hands every
// other import to the standard library's source importer.
func (p *typedProgram) Import(path string) (*types.Package, error) {
	dir, ok := p.dirs[path]
	if !ok {
		return p.std.Import(path)
	}
	if tp := p.pkgs[path]; tp != nil {
		if tp.pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return tp.pkg, nil
	}
	tp := &typedPackage{path: path}
	p.pkgs[path] = tp
	parsed, err := parser.ParseDir(p.fset, dir,
		func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		return nil, err
	}
	for _, pkg := range parsed {
		for _, f := range pkg.Files {
			tp.files = append(tp.files, f)
		}
	}
	if len(tp.files) == 0 { // a directory of tests or data only
		tp.pkg = types.NewPackage(path, filepath.Base(dir))
		return tp.pkg, nil
	}
	tp.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	tp.pkg, err = (&types.Config{Importer: p}).Check(path, p.fset, tp.files, tp.info)
	if err != nil {
		return nil, err
	}
	p.order = append(p.order, tp)
	return tp.pkg, nil
}

// lintName is how the lint prints obj: package path, then type and member.
func lintName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if n := receiverNamed(recv.Type()); n != nil {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// receiverNamed is the named type of a method receiver, through its pointer.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// origin maps an object of an instantiated generic back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// lintOptions applies the options rule.
func (p *typedProgram) lintOptions(report func(name, msg string)) {
	set := map[types.Object]bool{}
	for _, tp := range p.order {
		mark := func(obj types.Object) {
			if obj != nil && obj.Pkg() != tp.pkg {
				set[origin(obj)] = true
			}
		}
		markSelector := func(expr ast.Expr) {
			for {
				paren, ok := expr.(*ast.ParenExpr)
				if !ok {
					break
				}
				expr = paren.X
			}
			if sel, ok := expr.(*ast.SelectorExpr); ok {
				mark(tp.info.Uses[sel.Sel])
			}
		}
		for _, f := range tp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := tp.info.Types[n].Type
					if ptr, ok := typ.Underlying().(*types.Pointer); ok { // an elided &T{…}
						typ = ptr.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								mark(tp.info.Uses[key])
							}
						} else {
							mark(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSelector(lhs)
					}
				case *ast.IncDecStmt:
					markSelector(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markSelector(n.X)
					}
				}
				return true
			})
		}
	}
	for _, tp := range p.order {
		scope := tp.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if field := st.Field(i); field.Exported() && !set[field] {
					report(tp.path+"."+name+"."+field.Name(),
						"(options) is set by no program outside its package, only tests if anything")
				}
			}
		}
	}
}

// lintAlgorithms applies the algorithms rule.
func (p *typedProgram) lintAlgorithms(t *testing.T, report func(name, msg string)) {
	locks := p.pkgs["gls/locks"]
	if locks == nil || locks.pkg == nil {
		t.Fatal("package gls/locks not found (moved?)")
	}
	used := map[types.Object]bool{}
	for _, tp := range p.order {
		if tp != locks {
			for _, obj := range tp.info.Uses {
				if obj.Pkg() == locks.pkg {
					used[obj] = true
				}
			}
		}
	}
	scope := locks.pkg.Scope()
	consts := map[string][]string{}
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		typ, ok := c.Type().(*types.Named)
		if !ok || typ.Obj().Pkg() != locks.pkg || (typ.Obj().Name() != "Algorithm" && typ.Obj().Name() != "RWAlgorithm") {
			continue
		}
		consts[typ.Obj().Name()] = append(consts[typ.Obj().Name()], name)
		if typ.Obj().Name() == "Algorithm" && slices.Contains(paperTable1, name) {
			continue
		}
		ctor := "New" + strings.TrimSuffix(name, "Algo")
		if !used[c] && (scope.Lookup(ctor) == nil || !used[scope.Lookup(ctor)]) {
			report("gls/locks."+name, fmt.Sprintf("(algorithms) is used by no program outside package locks, as the constant or through %s", ctor))
		}
	}
	for _, name := range paperTable1 {
		if !slices.Contains(consts["Algorithm"], name) {
			t.Fatalf("locks.%s is not a locks.Algorithm constant (renamed?)", name)
		}
	}
	if len(consts["RWAlgorithm"]) == 0 {
		t.Fatal("found no locks.RWAlgorithm constants (renamed?)")
	}
}

// lintDeclarations applies the declarations rule.
func (p *typedProgram) lintDeclarations(report func(name, msg string)) {
	// used holds every object some non-test code refers to from outside the
	// object's own declaration.
	used := map[types.Object]bool{}
	for _, tp := range p.order {
		for _, f := range tp.files {
			for _, decl := range f.Decls {
				var self []types.Object // the declaration's own objects
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = append(self, tp.info.Defs[fd.Name])
					if fd.Recv != nil {
						if n := receiverNamed(tp.info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()); n != nil {
							self = append(self, n.Obj())
						}
					}
				} else if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, spec := range gd.Specs {
						self = append(self, tp.info.Defs[spec.(*ast.TypeSpec).Name])
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := tp.info.Uses[id]; obj != nil && !slices.Contains(self, origin(obj)) {
							used[origin(obj)] = true
						}
					}
					return true
				})
			}
		}
	}
	ifaces := p.usedInterfaces()
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if n := receiverNamed(recv); n != nil {
			recv = n
		}
		for _, iface := range ifaces {
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if m.Name() == fn.Name() && (m.Exported() || m.Pkg() == fn.Pkg()) &&
					(types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
					return true
				}
			}
		}
		return false
	}
	for _, tp := range p.order {
		internal := strings.Contains(tp.path+"/", "/internal/")
		check := func(obj types.Object) {
			if obj == nil || obj.Name() == "_" || (!internal && obj.Exported()) || used[obj] {
				return
			}
			if fn, ok := obj.(*types.Func); ok {
				if fn.Type().(*types.Signature).Recv() == nil && (fn.Name() == "init" || fn.Name() == "main" && tp.pkg.Name() == "main") {
					return
				}
				if fn.Type().(*types.Signature).Recv() != nil && satisfies(fn) {
					return
				}
			}
			report(lintName(obj), fmt.Sprintf("(declarations, %s) is used by no non-test code", p.fset.Position(obj.Pos())))
		}
		for _, f := range tp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					check(tp.info.Defs[d.Name])
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							check(tp.info.Defs[s.Name])
						case *ast.ValueSpec:
							for _, name := range s.Names {
								check(tp.info.Defs[name])
							}
						}
					}
				}
			}
		}
	}
}

// usedInterfaces lists the interfaces with methods that the module's
// non-test code reaches: every interface type among its expressions, the
// objects it uses and their signatures, plus error and fmt.Stringer, which
// package fmt consults without naming them.
func (p *typedProgram) usedInterfaces() []*types.Interface {
	seen := map[types.Type]bool{}
	var out []*types.Interface
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Named:
			if iface, ok := u.Underlying().(*types.Interface); ok {
				visit(iface)
			}
		case *types.Interface:
			if u.NumMethods() > 0 {
				out = append(out, u)
			}
		case *types.Pointer:
			visit(u.Elem())
		case *types.Slice:
			visit(u.Elem())
		case *types.Array:
			visit(u.Elem())
		case *types.Chan:
			visit(u.Elem())
		case *types.Map:
			visit(u.Key())
			visit(u.Elem())
		case *types.Signature:
			for i := 0; i < u.Params().Len(); i++ {
				visit(u.Params().At(i).Type())
			}
			for i := 0; i < u.Results().Len(); i++ {
				visit(u.Results().At(i).Type())
			}
		}
	}
	visit(types.Universe.Lookup("error").Type())
	if fmtPkg, err := p.std.Import("fmt"); err == nil {
		visit(fmtPkg.Scope().Lookup("Stringer").Type())
	}
	for _, tp := range p.order {
		for _, tv := range tp.info.Types {
			visit(tv.Type)
		}
		for _, obj := range tp.info.Uses {
			visit(obj.Type())
		}
	}
	return out
}
