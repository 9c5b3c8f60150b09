package gls_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
