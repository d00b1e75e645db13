// Package hotpathalloc guards functions annotated with a
// `//dtn:hotpath` doc-comment line against allocation-prone
// constructs. PR 3/4 made the per-contact path allocation-free
// (benchguard pins 0 allocs/op dynamically); this pass catches the
// regression at review time instead of bench time, and names the
// construct instead of a byte count.
//
// Inside an annotated function it reports:
//   - fmt formatting calls (interface boxing + buffer allocation)
//   - container/heap operations (box every element into interface{})
//   - closure literals that capture enclosing variables and are
//     stored or returned (captured variables move to the heap);
//     literals passed directly as call arguments are exempt — they
//     stay stack-allocated when the callee's parameter does not
//     escape, the scratch idiom benchguard pins at 0 allocs/op
//   - make() of maps/slices and new() (fresh allocations per call)
//   - append to a locally-declared capacity-less slice that the
//     function returns (grows an escaping backing array)
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dtnsim/internal/analysis"
)

// Marker is the doc-comment line that opts a function into the check.
const Marker = "//dtn:hotpath"

// Analyzer is the hotpathalloc pass. It is annotation-driven, so it
// runs everywhere: unannotated code is never flagged.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "flag allocation-prone constructs inside //dtn:hotpath-annotated functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !annotated(fn) {
				continue
			}
			check(pass, fn)
		}
	}
	return nil
}

func annotated(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == Marker || strings.HasPrefix(c.Text, Marker+" ") {
			return true
		}
	}
	return false
}

func check(pass *analysis.Pass, fn *ast.FuncDecl) {
	returned := returnedIdents(pass, fn)
	// Closure literals in argument position (sort.Search(func…),
	// Store.Range(func…)) stay on the stack when the callee's
	// parameter does not escape — the PR-3 scratch idiom benchguard
	// pins at 0 allocs/op — so only stored/returned literals are
	// capture-checked. Immediately-invoked literals are their Fun.
	callPos := map[*ast.FuncLit]bool{}
	// Formatting that feeds directly into panic() is a crash path:
	// the arguments evaluate only when the invariant is already
	// broken, so the allocation never happens in steady state.
	panicArg := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lit, ok := call.Fun.(*ast.FuncLit); ok {
			callPos[lit] = true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
				for _, a := range call.Args {
					if inner, ok := a.(*ast.CallExpr); ok {
						panicArg[inner] = true
					}
				}
			}
		}
		for _, a := range call.Args {
			if lit, ok := a.(*ast.FuncLit); ok {
				callPos[lit] = true
			}
		}
		return true
	})
	var funcLits []*ast.FuncLit
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if !callPos[x] {
				checkCapture(pass, fn, x)
			}
			funcLits = append(funcLits, x)
			return true
		case *ast.CallExpr:
			if !panicArg[x] {
				checkCall(pass, fn, x, returned, funcLits)
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr, returned map[types.Object]bool, lits []*ast.FuncLit) {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		pkgID, ok := f.X.(*ast.Ident)
		if !ok {
			return
		}
		pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
		if !ok {
			return
		}
		switch pn.Imported().Path() {
		case "fmt":
			pass.Reportf(call.Pos(), "hot path %s calls fmt.%s, which allocates for formatting; precompute or move the message off the hot path",
				fn.Name.Name, f.Sel.Name)
		case "container/heap":
			pass.Reportf(call.Pos(), "hot path %s calls heap.%s, which boxes elements into interface{}; use a concrete-typed heap like contact.Lookahead",
				fn.Name.Name, f.Sel.Name)
		}
	case *ast.Ident:
		if _, builtin := pass.TypesInfo.Uses[f].(*types.Builtin); !builtin {
			return
		}
		switch f.Name {
		case "make":
			pass.Reportf(call.Pos(), "hot path %s allocates with make; reuse a scratch buffer sized once at setup", fn.Name.Name)
		case "new":
			pass.Reportf(call.Pos(), "hot path %s allocates with new; reuse preallocated state", fn.Name.Name)
		case "append":
			checkAppend(pass, fn, call, returned, lits)
		}
	}
}

// checkAppend flags append calls that grow a capacity-less local slice
// the function returns: each growth reallocates an escaping backing
// array. Appends into scratch buffers (declared elsewhere, or sliced
// from existing storage like sc.Direct[:0]) pass.
func checkAppend(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr, returned map[types.Object]bool, lits []*ast.FuncLit) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil || !returned[obj] {
		return
	}
	// Inside a closure the append may be growing the outer function's
	// returned slice; same failure mode, same report.
	if declaredWithoutCap(pass, fn, obj) {
		pass.Reportf(call.Pos(), "hot path %s grows returned slice %s from zero capacity; preallocate with a capacity estimate",
			fn.Name.Name, id.Name)
	}
}

// declaredWithoutCap reports whether obj is declared inside fn as a
// slice with no backing capacity: `var s []T`, `s := []T{}`, or
// `s := make([]T, 0)`.
func declaredWithoutCap(pass *analysis.Pass, fn *ast.FuncDecl, obj types.Object) bool {
	if obj.Pos() < fn.Pos() || obj.Pos() > fn.End() {
		return false
	}
	if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
		return false
	}
	capless := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.ValueSpec: // var s []T
			for i, name := range d.Names {
				if pass.TypesInfo.ObjectOf(name) != obj {
					continue
				}
				if len(d.Values) == 0 {
					capless = true
				} else if i < len(d.Values) {
					capless = caplessExpr(pass, d.Values[i])
				}
			}
		case *ast.AssignStmt: // s := []T{} / make([]T, 0)
			if d.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range d.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok || pass.TypesInfo.ObjectOf(lid) != obj || i >= len(d.Rhs) {
					continue
				}
				capless = caplessExpr(pass, d.Rhs[i])
			}
		}
		return true
	})
	return capless
}

// caplessExpr recognizes initializers with no useful capacity: nil,
// empty composite literals, and 2-argument make with a zero length.
func caplessExpr(pass *analysis.Pass, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == "nil"
	case *ast.CompositeLit:
		return len(x.Elts) == 0
	case *ast.CallExpr:
		id, ok := x.Fun.(*ast.Ident)
		if !ok || id.Name != "make" {
			return false
		}
		if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); !builtin {
			return false
		}
		if len(x.Args) >= 3 {
			return false // explicit capacity
		}
		if len(x.Args) == 2 {
			if tv, ok := pass.TypesInfo.Types[x.Args[1]]; ok && tv.Value != nil {
				return tv.Value.String() == "0"
			}
		}
		return false
	}
	return false
}

// returnedIdents collects objects that appear in fn's return
// statements or are named results — the escape set the append check
// tests against.
func returnedIdents(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	if fn.Type.Results != nil {
		for _, field := range fn.Type.Results.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.ObjectOf(name); obj != nil {
					out[obj] = true
				}
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if id, ok := res.(*ast.Ident); ok {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// checkCapture reports closure literals that capture variables from
// the enclosing function: captured variables move to the heap, and
// the closure header itself allocates when it escapes.
func checkCapture(pass *analysis.Pass, fn *ast.FuncDecl, lit *ast.FuncLit) {
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		// A capture is a variable declared in the enclosing function
		// but outside this literal (parameters included).
		if v.Pos() >= fn.Pos() && v.Pos() <= fn.End() &&
			(v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			seen[v] = true
			pass.Reportf(lit.Pos(), "hot path %s builds a closure capturing %s; captured variables escape to the heap — pass state explicitly or hoist the closure to setup",
				fn.Name.Name, v.Name())
		}
		return true
	})
}
