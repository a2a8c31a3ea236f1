package cliflags

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEntryShape pins the one entry shape of the binaries: each main
// is exactly os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)), nothing
// else in cmd/* or in this package exits the process, writes to the
// process's stdout or stderr or touches flag.CommandLine (through the
// flag package's top-level functions either), and this package keeps no
// package-level variable. So every run can be called in-process, and
// every output goes to the writers it was given.
func TestEntryShape(t *testing.T) {
	dirs, err := filepath.Glob("../../cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 7 {
		t.Fatalf("found %d binaries under cmd, want 7", len(dirs))
	}
	// The flag package's names that do not act on flag.CommandLine.
	flagOK := map[string]bool{"NewFlagSet": true, "ContinueOnError": true, "ErrHelp": true, "FlagSet": true, "Flag": true, "Value": true}
	for _, dir := range append(dirs, ".") {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		mains := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			local := map[string]string{} // import path -> name in this file
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				local[p] = p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					local[p] = imp.Name.Name
				}
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "main" {
					mains++
					var body bytes.Buffer
					printer.Fprint(&body, fset, fd.Body)
					if want := "{ os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }"; strings.Join(strings.Fields(body.String()), " ") != want {
						t.Errorf("%s: func main %s, want %s", path, body.String(), want)
					}
					continue
				}
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR && dir == "." {
					t.Errorf("%s: package-level var at %s", path, fset.Position(gd.Pos()))
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					x, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					name := sel.Sel.Name
					if x.Name == local["os"] && (name == "Exit" || name == "Stdout" || name == "Stderr") ||
						x.Name == local["flag"] && !flagOK[name] {
						t.Errorf("%s: %s.%s outside func main", fset.Position(sel.Pos()), x.Name, name)
					}
					return true
				})
			}
		}
		want := 1
		if dir == "." {
			want = 0
		}
		if mains != want {
			t.Errorf("%s: %d func main, want %d", dir, mains, want)
		}
	}
}
