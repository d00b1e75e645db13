// Package maporder flags `for … range` over a map in simulation code
// unless the loop is the one sanctioned idiom, collect-then-sort:
//
//	for k := range m {
//		keys = append(keys, k)
//	}
//	slices.Sort(keys)
//
// Map iteration order is randomized by the runtime, so any body that
// depends on it is a determinism bug — the single most common way a
// new protocol breaks bit-identical reproducibility in cells the golden
// grid doesn't pin. Rather than prove other bodies order-insensitive,
// the pass accepts exactly one shape: the body is the single statement
// `keys = append(keys, k)`, where k is the key the range statement
// declares and keys a variable, and keys is the first argument of a
// sort or slices sorting call later in the same declaration. Every
// other range over a map is reported; iterate the sorted keys instead.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dtnsim/internal/analysis"
)

// Analyzer is the maporder pass.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag range-over-map loops that are not collect-then-sort of the keys",
	Run:  run,
	Match: func(pkgPath string) bool {
		// Every internal package except internal/server, the wall-clock
		// boundary that runs the engine as a black box (rngdiscipline
		// exempts it for the same reason).
		return strings.HasPrefix(pkgPath, "dtnsim/internal/") && pkgPath != "dtnsim/internal/server"
	},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if tv, ok := pass.TypesInfo.Types[rs.X]; !ok {
					return true
				} else if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if reason := unsanctioned(pass, decl, rs); reason != "" {
					pass.Reportf(rs.For, "range over map %s is not collect-then-sort (%s); append its keys to a slice, sort it, and range over that",
						types.ExprString(rs.X), reason)
				}
				return true
			})
		}
	}
	return nil
}

// unsanctioned returns why the map range rs inside decl is not
// collect-then-sort, or "" when it is.
func unsanctioned(pass *analysis.Pass, decl ast.Node, rs *ast.RangeStmt) string {
	keys := collectTarget(pass, rs)
	if keys == nil {
		return "body is not keys = append(keys, k) over the range key k"
	}
	if !sortedAfter(pass, decl, rs.End(), keys) {
		return keys.Name() + " is never sorted after the loop"
	}
	return ""
}

// collectTarget returns the variable keys when rs declares its key k
// and its body is exactly `keys = append(keys, k)`; nil otherwise.
func collectTarget(pass *analysis.Pass, rs *ast.RangeStmt) types.Object {
	k, ok := rs.Key.(*ast.Ident)
	if !ok || rs.Tok != token.DEFINE || len(rs.Body.List) != 1 {
		return nil
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	keys, ok := as.Lhs[0].(*ast.Ident)
	call, isCall := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isCall || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return nil
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || pass.TypesInfo.Uses[fn] != types.Universe.Lookup("append") {
		return nil
	}
	// keys := append(keys, k) fails here too: the := declares a new
	// keys, which is not the one appended to.
	obj := pass.TypesInfo.ObjectOf(keys)
	if !isVar(pass, call.Args[0], obj) || !isVar(pass, call.Args[1], pass.TypesInfo.ObjectOf(k)) {
		return nil
	}
	return obj
}

// isVar reports whether e is an identifier naming obj.
func isVar(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	id, ok := e.(*ast.Ident)
	return ok && obj != nil && pass.TypesInfo.ObjectOf(id) == obj
}

// sortedAfter reports whether keys is the first argument of a sort or
// slices sorting call that starts at or after pos inside decl.
func sortedAfter(pass *analysis.Pass, decl ast.Node, pos token.Pos, keys types.Object) bool {
	sorted := false
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if sorted || !ok || call.Pos() < pos || len(call.Args) == 0 {
			return !sorted
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isSortFunc(sel.Sel.Name) || !isVar(pass, call.Args[0], keys) {
			return true
		}
		if pkgID, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName); ok {
				path := pn.Imported().Path()
				sorted = path == "sort" || path == "slices"
			}
		}
		return !sorted
	})
	return sorted
}

func isSortFunc(name string) bool {
	switch name {
	case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Stable":
		return true
	}
	return strings.HasPrefix(name, "Sort")
}
