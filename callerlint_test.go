package gls_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	"gls/client.Conn.Ping":                "the client half of glsd's ping op",
	"gls/client.Conn.Renew":               "the client half of glsd's renew op",
	"gls/glk.Lock.PresenceInflated":       "test seam: whether the presence counter is striped, which no operation shows",
	"gls/glk.RWLock.ReadersInflated":      "test seam: whether the native reader counter is striped, which no operation shows",
	"gls/locks.Algorithms":                "test seam: Table 1 as a list, which the conformance tests and BenchmarkTable1 iterate",
	"gls/locks.MCSLock.QueueLen":          "test seam: the queue a test waits to fill before it acts",
	"gls/locks.MutexLock.QueueLen":        "test seam: the queue a test waits to fill before it acts",
	"gls/locks.RWPhaseFair.Phases":        "test seam: the writer-phase clock the bounded-wait tests count against",
	"gls/locks.RWStriped.ReadersInflated": "test seam: whether the reader counter is striped, which no operation shows",
	"gls/internal/apps/appsync.GLK.Locks": "test seam: the per-role GLK locks whose modes and stats tests inspect",
	"gls/internal/apps/appsync.GLS.Key":   "test seam: the service key of a role, so a test can tell which lock an issue names",
	"gls/internal/clht.Table.Resizes":     "test seam: lets the resize tests see that a resize happened",
	"gls/internal/sysmon.Monitor.Hint":    "test seam: reads back the hint a test or the harness set",
	"gls/internal/sysmon.Monitor.Rounds":  "test seam: tests wait for the sampler to finish rounds",
	"gls/internal/sysmon.StopShared":      "test seam: stops the shared sampler so a test can start a fresh one",
	"gls/internal/xrand.Zipf.Prob":        "test oracle: the distribution the sampling tests compare against",
}

// paperTable1 is the paper's Table 1 by constant name: the exclusive
// algorithms GLS offers whether or not a program names one.
var paperTable1 = []string{"TAS", "TTAS", "Ticket", "MCS", "CLH", "Mutex"}

// paperAPI is the paper's GLS interface by lint name: gls_lock, gls_trylock
// and gls_unlock, also through the §4.1 lock cache, their gls_A_lock forms,
// init and debug. Rule (d) lets these stand without a program caller,
// because the paper is their caller.
var paperAPI = []string{
	"gls.Lock", "gls.TryLock", "gls.Unlock",
	"gls.Service.Lock", "gls.Service.TryLock", "gls.Service.Unlock",
	"gls.Handle.Lock", "gls.Handle.TryLock", "gls.Handle.Unlock",
	"gls.Service.LockWith", "gls.Service.TryLockWith", "gls.Service.UnlockWith",
	"gls.New", "gls.Service.InitLock", "gls.Service.InitLockWith",
	"gls.Service.CheckDeadlocks",
}

// callerPackages are loaded for the uses they make of the module and for
// nothing else: their own declarations are not linted. bench/ is the
// benchmark's own module, and example_test.go holds the runnable Examples,
// which need nothing but the module.
var callerPackages = map[string]pkgSource{
	"gls/bench": {dir: "bench", callerOnly: true},
	"gls_test":  {dir: ".", file: "example_test.go", callerOnly: true},
}

// TestCallers is the caller lint (ROADMAP aim 2: a knob, algorithm or
// declaration no program reaches is code nothing exercises). It type-checks
// the module's non-test Go as one program and fails on four rules:
//
//   - options: an exported field of an exported …Options or …Config struct
//     that no non-test file outside its package sets, in a composite
//     literal, by assignment, or through its address (flag.IntVar(&o.F, …));
//   - algorithms: a locks.Algorithm outside Table 1 that no non-test file
//     outside package locks uses as the constant or through New plus its
//     name (locks.NewX for a constant X);
//   - declarations: a func, method, type, const or var declared in an
//     internal package, or unexported anywhere, that no non-test code uses.
//     A use inside the declaration itself (recursion, a type's own methods)
//     does not count; a method that satisfies an interface the module uses
//     does;
//   - public: the same for an exported declaration of a public package
//     (one that is neither internal nor a command), where bench/'s program
//     and the runnable Examples count as callers too, and paperAPI stands
//     on the paper.
//
// Tests do not count: they can justify a constant, not a configuration
// surface or an operation. README's tables are held to the same program:
// every Service.X, Handle.X or pkg.X they name must resolve in it.
func TestCallers(t *testing.T) {
	prog := loadProgram(t)
	found := map[string]string{}
	report := func(name, msg string) { found[name] = msg }
	t.Run("options", func(t *testing.T) { prog.lintOptions(report) })
	t.Run("algorithms", func(t *testing.T) { prog.lintAlgorithms(t, report) })
	t.Run("declarations", func(t *testing.T) { prog.lintDeclarations(report, false) })
	t.Run("public", func(t *testing.T) { prog.lintDeclarations(report, true) })
	for _, msg := range judgeCallers(found, callerExemptions) {
		t.Error(msg)
	}
	for _, name := range paperAPI {
		if !prog.resolves(name) {
			t.Errorf("paperAPI names %s, which the program does not declare (renamed?)", name)
		}
	}
	t.Run("readme", func(t *testing.T) {
		readme, err := os.ReadFile("README.md")
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range prog.tableRefs(string(readme)) {
			if !prog.resolves(ref.name) {
				t.Errorf("README.md:%d names `%s`, which the program does not declare", ref.line, ref.text)
			}
		}
	})
}

// judgeCallers matches what the rules found against the exemptions: it
// returns one message per exemption that no longer names a finding (stale)
// and one per finding that no exemption covers, in name order.
func judgeCallers(found, exemptions map[string]string) []string {
	var msgs []string
	for name, reason := range exemptions {
		if _, ok := found[name]; !ok {
			msgs = append(msgs, fmt.Sprintf("stale exemption %s (%s): it has a program caller now, or is gone", name, reason))
		}
	}
	sort.Strings(msgs)
	names := make([]string, 0, len(found))
	for name := range found {
		if _, ok := exemptions[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		msgs = append(msgs, fmt.Sprintf("%s %s: delete it, give it a caller, or exempt it with a reason", name, found[name]))
	}
	return msgs
}

// pkgSource is where the lint reads a package's files from.
type pkgSource struct {
	dir        string            // the directory whose non-test files make the package
	file       string            // if set, the one file of dir that does
	mem        map[string]string // if set, the files themselves by name, instead of dir
	callerOnly bool              // its uses count, its declarations are not linted
}

// typedPackage is one package of the module, type-checked without its tests.
type typedPackage struct {
	path       string
	callerOnly bool
	files      []*ast.File
	pkg        *types.Package
	info       *types.Info
}

// typedProgram is the module's non-test code, type-checked as one program so
// that an object declared in one package is the same object where another
// package uses it.
type typedProgram struct {
	fset  *token.FileSet
	srcs  map[string]pkgSource // import path → its files
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
// repository root, once per test binary, and then callerPackages. testdata
// holds no program and stays out. The standard library is type-checked from
// source, so no export data or network is needed.
func loadProgram(t *testing.T) *typedProgram {
	t.Helper()
	programOnce.Do(func() {
		srcs := map[string]pkgSource{}
		programErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench") {
				return filepath.SkipDir
			}
			srcs[filepath.ToSlash(filepath.Join("gls", path))] = pkgSource{dir: path}
			return nil
		})
		for path, src := range callerPackages {
			srcs[path] = src
		}
		if programErr == nil {
			program, programErr = newProgram(srcs)
		}
	})
	if programErr != nil {
		t.Fatal(programErr)
	}
	return program
}

// newProgram type-checks every package of srcs, in import-path order.
func newProgram(srcs map[string]pkgSource) (*typedProgram, error) {
	p := &typedProgram{fset: token.NewFileSet(), srcs: srcs, pkgs: map[string]*typedPackage{}}
	p.std = importer.ForCompiler(p.fset, "source", nil)
	paths := make([]string, 0, len(srcs))
	for path := range srcs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := p.Import(path); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Import type-checks a package of the program on first use and hands every
// other import to the standard library's source importer.
func (p *typedProgram) Import(path string) (*types.Package, error) {
	src, ok := p.srcs[path]
	if !ok {
		return p.std.Import(path)
	}
	if tp := p.pkgs[path]; tp != nil {
		if tp.pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return tp.pkg, nil
	}
	tp := &typedPackage{path: path, callerOnly: src.callerOnly}
	p.pkgs[path] = tp
	if src.mem != nil {
		names := make([]string, 0, len(src.mem))
		for name := range src.mem {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			f, err := parser.ParseFile(p.fset, name, src.mem[name], 0)
			if err != nil {
				return nil, err
			}
			tp.files = append(tp.files, f)
		}
	} else {
		parsed, err := parser.ParseDir(p.fset, src.dir, func(fi fs.FileInfo) bool {
			if src.file != "" {
				return fi.Name() == src.file
			}
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return nil, err
		}
		for _, pkg := range parsed {
			for _, f := range pkg.Files {
				tp.files = append(tp.files, f)
			}
		}
	}
	if len(tp.files) == 0 { // a directory of tests or data only
		tp.pkg = types.NewPackage(path, filepath.Base(src.dir))
		return tp.pkg, nil
	}
	tp.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	var err error
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

// resolves reports whether name, as lintName prints it, is declared in the
// program: a package-level object, or a field or method of one.
func (p *typedProgram) resolves(name string) bool {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return false
	}
	tp := p.pkgs[name[:slash+1+dot]]
	if tp == nil || tp.pkg == nil {
		return false
	}
	parts := strings.Split(name[slash+2+dot:], ".")
	obj := tp.pkg.Scope().Lookup(parts[0])
	for _, member := range parts[1:] {
		if obj == nil {
			return false
		}
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, tp.pkg, member)
	}
	return obj != nil
}

// tableRef is one API name a README table row gives in backticks.
type tableRef struct {
	line       int
	text, name string // as written, and as lintName would print it
}

var (
	// backticked is a code span; qualified is a dotted name inside one, with
	// its slash-separated siblings (Service.Lock/TryLock/Unlock).
	backticked = regexp.MustCompile("`[^`]*`")
	qualified  = regexp.MustCompile(`\b([A-Za-z]\w*)((?:\.[A-Za-z]\w*)+)((?:/[A-Za-z]\w*)*)`)
	// derefRecv is a method expression's receiver, (*glk.Lock).Init.
	derefRecv = regexp.MustCompile(`\(\*([\w.]+)\)`)
)

// tableRefs lists the names README's table rows qualify by a public
// package (glk.New) or by a type of package gls (Service.Lock); other
// dotted spans, such as file names, are not API names.
func (p *typedProgram) tableRefs(readme string) []tableRef {
	pkgOf := map[string]string{}
	for _, tp := range p.order {
		if isPublic(tp) {
			pkgOf[tp.pkg.Name()] = tp.path
		}
	}
	var refs []tableRef
	for i, line := range strings.Split(readme, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, span := range backticked.FindAllString(line, -1) {
			span = derefRecv.ReplaceAllString(span, "$1")
			for _, m := range qualified.FindAllStringSubmatch(span, -1) {
				var prefix string
				if path, ok := pkgOf[m[1]]; ok {
					prefix = path + m[2]
				} else if obj, ok := p.pkgs["gls"].pkg.Scope().Lookup(m[1]).(*types.TypeName); ok && obj.Exported() {
					prefix = "gls." + m[1] + m[2]
				} else {
					continue
				}
				refs = append(refs, tableRef{i + 1, m[0], prefix})
				head := prefix[:strings.LastIndex(prefix, ".")+1]
				for _, sibling := range strings.Split(m[3], "/")[1:] {
					refs = append(refs, tableRef{i + 1, m[0], head + sibling})
				}
			}
		}
	}
	return refs
}

// isPublic reports whether tp is a public package of the module: one a
// program outside it can import, so neither internal nor a command.
func isPublic(tp *typedPackage) bool {
	return !tp.callerOnly && !strings.Contains(tp.path+"/", "/internal/") && tp.pkg.Name() != "main"
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
		if tp.callerOnly {
			continue
		}
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
	var consts []string
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		typ, ok := c.Type().(*types.Named)
		if !ok || typ.Obj().Pkg() != locks.pkg || typ.Obj().Name() != "Algorithm" {
			continue
		}
		consts = append(consts, name)
		if slices.Contains(paperTable1, name) {
			continue
		}
		ctor := "New" + name
		if !used[c] && (scope.Lookup(ctor) == nil || !used[scope.Lookup(ctor)]) {
			report("gls/locks."+name, fmt.Sprintf("(algorithms) is used by no program outside package locks, as the constant or through %s", ctor))
		}
	}
	for _, name := range paperTable1 {
		if !slices.Contains(consts, name) {
			t.Fatalf("locks.%s is not a locks.Algorithm constant (renamed?)", name)
		}
	}
}

// lintDeclarations applies the declarations rule, or with public the public
// rule.
func (p *typedProgram) lintDeclarations(report func(name, msg string), public bool) {
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
	rule, by := "declarations", "non-test code"
	if public {
		rule, by = "public", "program, bench/ or Example"
	}
	for _, tp := range p.order {
		if tp.callerOnly {
			continue
		}
		internal := strings.Contains(tp.path+"/", "/internal/")
		check := func(obj types.Object) {
			if obj == nil || obj.Name() == "_" || used[obj] {
				return
			}
			exported := !internal && obj.Exported()
			if exported != public || (public && !isPublic(tp)) {
				return
			}
			if public && slices.Contains(paperAPI, lintName(obj)) {
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
			report(lintName(obj), fmt.Sprintf("(%s, %s) is used by no %s", rule, p.fset.Position(obj.Pos()), by))
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

// TestCallersPublicRule runs rule (d) over a tiny program held in memory: an
// exported func of a public package that nothing calls is reported, one that
// a caller-only bench file or an Example calls is not, a caller-only
// package's own declarations are not linted, and an exemption that names no
// finding fails as stale.
func TestCallersPublicRule(t *testing.T) {
	prog, err := newProgram(map[string]pkgSource{
		"gls": {mem: map[string]string{"gls.go": `package gls
func Lock()      {}
func Unused()    {}
func ByProgram() {}
func ByBench()   {}
func ByExample() {}
`}},
		"gls/cmd/tool": {mem: map[string]string{"main.go": `package main
import "gls"
func main() { gls.ByProgram() }
`}},
		"gls/bench": {mem: map[string]string{"main.go": `package main
import "gls"
func main() { gls.ByBench() }
func unlinted() {}
`}, callerOnly: true},
		"gls_test": {mem: map[string]string{"example_test.go": `package gls_test
import "gls"
func ExampleByExample() { gls.ByExample() }
`}, callerOnly: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]string{}
	for _, public := range []bool{false, true} {
		prog.lintDeclarations(func(name, msg string) { found[name] = msg }, public)
	}
	names := make([]string, 0, len(found))
	for name := range found {
		names = append(names, name)
	}
	sort.Strings(names)
	if want := []string{"gls.Unused"}; !slices.Equal(names, want) {
		t.Fatalf("the declaration rules found %v, want %v (gls.Lock is paperAPI, the rest have callers, bench is not linted)", names, want)
	}
	if msgs := judgeCallers(found, map[string]string{"gls.Unused": "test seam"}); len(msgs) != 0 {
		t.Errorf("an exemption that covers the finding still fails: %v", msgs)
	}
	msgs := judgeCallers(found, map[string]string{"gls.Unused": "test seam", "gls.ByBench": "test seam"})
	if len(msgs) != 1 || !strings.HasPrefix(msgs[0], "stale exemption gls.ByBench") {
		t.Errorf("a stale exemption gave %v, want one stale-exemption message", msgs)
	}
}
