// Command maolint is the repository's pass-hygiene linter.
//
// Optimization passes must mutate the IR only through the pass.Ctx
// helpers (Ctx.Append, Ctx.InsertBefore, Ctx.InsertAfter, Ctx.Delete,
// Ctx.Rewrite, Ctx.MoveBefore, Ctx.MoveToEnd): the helpers stamp
// provenance onto every touched node and keep the unit's version —
// which fragment dirtying and the verifier's snapshot guard depend on
// — in sync. A pass that calls the raw ir.List mutators (or the
// Unit.Append wrapper) silently produces nodes without provenance and
// edits the certifier cannot attribute, so maolint rejects those call
// forms syntactically in pass packages.
//
// Passes also take a function's analyses from the pass.Ctx (Ctx.CFG,
// Ctx.Live, Ctx.Reach), which keeps them until a helper edits the
// function. maolint rejects package-qualified calls of cfg.Build,
// cfg.BuildWith, dataflow.Live, dataflow.LiveBlocks and dataflow.Reach,
// resolving the package names through the file's imports of
// mao/internal/cfg and mao/internal/dataflow, aliases included. Other
// functions of those packages (dataflow.InstDefUse) and methods of a
// graph stay allowed.
//
// Usage:
//
//	maolint [-tests] [-json] [dir ...]
//
// Each dir is walked non-recursively for .go files (_test.go files are
// skipped unless -tests is given). With no dirs, internal/passes is
// linted. Exit status is 1 when any violation is found, 2 on usage or
// parse errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// rawListMutators are the ir.List methods that restructure the node
// list or bump its version without stamping provenance.
var rawListMutators = map[string]bool{
	"Append":       true,
	"InsertBefore": true,
	"InsertAfter":  true,
	"Remove":       true,
	"BumpVersion":  true,
}

// analysisFuncs are the functions that compute a function analysis
// the pass.Ctx hands out, by import path.
var analysisFuncs = map[string]map[string]bool{
	"mao/internal/cfg":      {"Build": true, "BuildWith": true},
	"mao/internal/dataflow": {"Live": true, "LiveBlocks": true, "Reach": true},
}

// Violation is one flagged call site.
type Violation struct {
	Pos  string `json:"pos"` // file:line:col
	Call string `json:"call"`
	Fix  string `json:"fix"`
}

func main() {
	tests := flag.Bool("tests", false, "lint _test.go files too")
	asJSON := flag.Bool("json", false, "emit violations as JSON")
	flag.Parse()

	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = []string{filepath.Join("internal", "passes")}
	}

	var violations []Violation
	fset := token.NewFileSet()
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "maolint: %v\n", err)
			os.Exit(2)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") {
				continue
			}
			if !*tests && strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			src, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "maolint: %v\n", err)
				os.Exit(2)
			}
			vs, err := lintSource(fset, path, src)
			if err != nil {
				fmt.Fprintf(os.Stderr, "maolint: %v\n", err)
				os.Exit(2)
			}
			violations = append(violations, vs...)
		}
	}
	sort.Slice(violations, func(i, j int) bool { return violations[i].Pos < violations[j].Pos })

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(violations) // encoding []Violation cannot fail
	} else {
		for _, v := range violations {
			fmt.Printf("%s: %s: %s\n", v.Pos, v.Call, v.Fix)
		}
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}

// lintSource parses one file and returns its violations.
func lintSource(fset *token.FileSet, path string, src []byte) ([]Violation, error) {
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		return nil, err
	}
	// The names this file gives the analysis packages.
	analysisPkgs := map[string]map[string]bool{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || analysisFuncs[path] == nil {
			continue
		}
		name := path[strings.LastIndexByte(path, '/')+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		analysisPkgs[name] = analysisFuncs[path]
	}
	var out []Violation
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// A package name is an identifier the parser leaves unresolved;
		// a local variable of the same name resolves to its declaration.
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Obj == nil && analysisPkgs[pkg.Name][sel.Sel.Name] {
			out = append(out, Violation{
				Pos:  fset.Position(call.Pos()).String(),
				Call: renderSel(sel),
				Fix:  "ask the pass.Ctx (ctx.CFG / ctx.Live / ctx.Reach), which keeps the analysis until a helper edits the function",
			})
			return true
		}
		recv, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		method := sel.Sel.Name
		switch {
		case recv.Sel.Name == "List" && rawListMutators[method]:
			out = append(out, Violation{
				Pos:  fset.Position(call.Pos()).String(),
				Call: renderSel(sel),
				Fix:  "mutate through the pass.Ctx helper (" + ctxEquivalent(method) + ") so provenance and versioning stay correct",
			})
		case recv.Sel.Name == "Unit" && method == "Append":
			out = append(out, Violation{
				Pos:  fset.Position(call.Pos()).String(),
				Call: renderSel(sel),
				Fix:  "mutate through the pass.Ctx helper (ctx.Append) so provenance and versioning stay correct",
			})
		}
		return true
	})
	return out, nil
}

// ctxEquivalent names the Ctx helper replacing a raw List method.
func ctxEquivalent(method string) string {
	switch method {
	case "Remove":
		return "ctx.Delete"
	case "BumpVersion":
		return "ctx.Rewrite"
	default:
		return "ctx." + method
	}
}

// renderSel prints the full dotted selector chain of the offending
// call ("ctx.Unit.List.Remove").
func renderSel(sel *ast.SelectorExpr) string {
	var parts []string
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			walk(x.X)
			parts = append(parts, x.Sel.Name)
		case *ast.Ident:
			parts = append(parts, x.Name)
		default:
			parts = append(parts, "(...)")
		}
	}
	walk(sel)
	return strings.Join(parts, ".")
}
