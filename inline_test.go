package gls_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// hotInlines are the inlining decisions the uncontended path is built on:
// each names the function (file, receiver type, method), the call the
// compiler must inline into it, and why it matters. A change that pushes
// one of those callees over the inlining budget compiles and passes every
// other test, and costs a call per operation (a lost TicketCore.Unlock
// inline once cost 5 %). The decisions were checked with go1.24 only; an
// older go command skips the test (see checkedMinor).
var hotInlines = []struct {
	file, recv, fn, callee, why string
}{
	{"glk/glk.go", "Lock", "Lock", "locks.(*TicketCore).TryLock", "the ticket-mode try is the whole uncontended acquisition"},
	{"glk/glk.go", "Lock", "Unlock", "locks.(*TicketCore).Unlock", "the ticket-mode release is the whole uncontended release"},
	{"glk/rwlock.go", "RWLock", "RLock", "locks.(*RWPhaseFair).RLock", "the phase-fair read try is the delegate's one fetch-and-add"},
	{"glk/rwlock.go", "RWLock", "RUnlock", "locks.(*RWPhaseFair).RUnlock", "the phase-fair read release is the delegate's one add"},
	{"glk/rwlock.go", "RWLock", "Unlock", "locks.(*RWPhaseFair).Unlock", "a phase-fair write between boundaries is released in the caller's frame"},
	{"internal/clht/clht.go", "Table", "Get", "clht.slotOf", "the slot select is three SETcc and no branch, not a call per probe"},
	{"handle.go", "Handle", "Lock", "(*Handle).cacheHit", "a handle hit is a compare and a load, not a call"},
	{"handle.go", "Handle", "Unlock", "(*Handle).cacheHit", "a handle hit is a compare and a load, not a call"},
	{"handle.go", "Handle", "RLock", "(*Handle).rwHit", "a handle read hit is a compare and a load, not a call"},
	{"handle.go", "Handle", "RUnlock", "(*Handle).rwHit", "a handle read hit is a compare and a load, not a call"},
}

// checkedMinor is the oldest Go 1.x minor release the hotInlines decisions
// were checked with. Inlining budgets and costs move between releases, so a
// go command older than that skips the test rather than assert decisions
// nobody has seen it make.
const checkedMinor = 24

var goMinor = regexp.MustCompile(`^go1\.(\d+)`)

var inlineLine = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: inlining call to (\S+)$`)

// TestHotPathInlines compiles the hot-path packages with -gcflags=-m and
// checks every hotInlines decision against the compiler's report, matching
// each reported call to the function whose lines contain it.
func TestHotPathInlines(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to compile with")
	}
	ver, err := exec.Command(goBin, "env", "GOVERSION").Output()
	if err != nil {
		t.Fatalf("go env GOVERSION: %v", err)
	}
	if m := goMinor.FindSubmatch(ver); m == nil {
		t.Skipf("go command reports %q, not a go1.x release", bytes.TrimSpace(ver))
	} else if minor, _ := strconv.Atoi(string(m[1])); minor < checkedMinor {
		t.Skipf("go command is %s; the inlining decisions were checked with go1.%d", bytes.TrimSpace(ver), checkedMinor)
	}
	// clht's generic Table.Get is compiled, and its inlining reported, where
	// the gls package (".") instantiates it, not in ./internal/clht itself.
	out, err := exec.Command(goBin, "build", "-gcflags=-m", "./glk", "./locks", "./internal/clht", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	// inlined[file][line] holds the callees inlined at that line.
	inlined := map[string]map[int][]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := inlineLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		file := filepath.ToSlash(filepath.Clean(m[1]))
		line, _ := strconv.Atoi(m[2])
		if inlined[file] == nil {
			inlined[file] = map[int][]string{}
		}
		inlined[file][line] = append(inlined[file][line], m[3])
	}
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{}
	for _, w := range hotInlines {
		f := parsed[w.file]
		if f == nil {
			if f, err = parser.ParseFile(fset, w.file, nil, 0); err != nil {
				t.Fatal(err)
			}
			parsed[w.file] = f
		}
		decl := findMethod(f, w.recv, w.fn)
		if decl == nil {
			t.Errorf("%s: no method (*%s).%s", w.file, w.recv, w.fn)
			continue
		}
		from, to := fset.Position(decl.Pos()).Line, fset.Position(decl.End()).Line
		found := false
		for line := from; line <= to && !found; line++ {
			for _, c := range inlined[w.file][line] {
				found = found || c == w.callee
			}
		}
		if !found {
			t.Errorf("%s: %s is no longer inlined into (*%s).%s (lines %d–%d): %s", w.file, w.callee, w.recv, w.fn, from, to, w.why)
		}
	}
}

// findMethod returns the declaration of method fn on *recv in f; recv may
// be generic (*Table[V]).
func findMethod(f *ast.File, recv, fn string) *ast.FuncDecl {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != fn || len(fd.Recv.List) != 1 {
			continue
		}
		star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		typ := star.X
		if ix, ok := typ.(*ast.IndexExpr); ok {
			typ = ix.X
		}
		if id, ok := typ.(*ast.Ident); ok && id.Name == recv {
			return fd
		}
	}
	return nil
}
