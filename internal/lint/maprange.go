package lint

import (
	"go/ast"
	"go/types"

	"ken/internal/lint/driver"
)

// MapRange guards the output-determinism half of the engine contract
// (docs/ENGINE.md: "a -parallel 8 run must produce byte-identical tables
// to -parallel 1" — and a rerun must produce byte-identical tables to the
// previous run). Go's map iteration order is deliberately randomized, so a
// `for range someMap` whose body appends to a slice, writes output, or
// emits events leaks that random order into tables and traces. Iterations
// that only do commutative work (summing, counting, filling another map,
// bumping obs counters) are fine and not flagged.
var MapRange = &driver.Analyzer{
	Name: "maprange",
	Doc: "flags `for range` over a map whose body appends to a slice (unless the " +
		"slice is sorted afterwards in the same function), writes formatted output, " +
		"or emits events/frames — map order is randomized and leaks into results",
	Run: runMapRange,
}

// emitMethodNames are method names treated as ordered output sinks.
var emitMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteRow": true, "Emit": true, "Encode": true,
	"Print": true, "Printf": true, "Println": true,
}

func runMapRange(pass *driver.Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			checkMapRanges(pass, info, body)
			return true
		})
	}
	return nil
}

// checkMapRanges inspects one function body. funcBody is also the search
// window for the sorted-afterwards exemption.
func checkMapRanges(pass *driver.Pass, info *types.Info, funcBody *ast.BlockStmt) {
	ast.Inspect(funcBody, func(n ast.Node) bool {
		// Nested function literals get their own checkMapRanges call with
		// their own sort window; do not descend into them here.
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return true
		}
		reportOrderLeaks(pass, info, rng, funcBody)
		return true
	})
}

// reportOrderLeaks flags the order-dependent statements inside one
// map-range body.
func reportOrderLeaks(pass *driver.Pass, info *types.Info, rng *ast.RangeStmt, funcBody *ast.BlockStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside range over map: delivery order follows the randomized "+
					"map iteration order")
		case *ast.AssignStmt:
			tgt, ok := appendTarget(info, n)
			if !ok {
				return true
			}
			// A slice declared inside the range body is rebuilt from
			// scratch on every iteration; its element order comes from the
			// body's own control flow, not from which key the map handed
			// out first. For a field target the variable holding the
			// struct decides.
			if r := tgt.root; r != nil && r.Pos() >= rng.Body.Pos() && r.Pos() < rng.Body.End() {
				return true
			}
			if !sortedAfter(info, funcBody, rng, tgt.obj) {
				pass.Reportf(n.Pos(),
					"append to %q inside range over map without sorting it afterwards: "+
						"element order follows the randomized map iteration order", tgt.name)
			}
		case *ast.CallExpr:
			fn := callee(info, n)
			if fn == nil {
				return true
			}
			name := fn.Name()
			switch {
			case fromPkg(fn, "fmt") && !isMethod(fn) &&
				(name == "Print" || name == "Printf" || name == "Println" ||
					name == "Fprint" || name == "Fprintf" || name == "Fprintln"):
				pass.Reportf(n.Pos(),
					"fmt.%s inside range over map: output line order follows the randomized "+
						"map iteration order", name)
			case isMethod(fn) && emitMethodNames[name] && !fromPkg(fn, "internal/obs"):
				pass.Reportf(n.Pos(),
					"%s call inside range over map: emission order follows the randomized "+
						"map iteration order", name)
			}
		}
		return true
	})
}

// appendDest is the slice an append statement writes to.
type appendDest struct {
	obj  types.Object // the variable or field appended to
	root types.Object // the variable the selector chain starts at; nil if none
	name string       // source form, for the diagnostic
}

// appendTarget matches `x = append(x, ...)` / `x := append(x, ...)` (also
// the +=-style multi-assign forms) and `x.f = append(x.f, ...)` selector
// targets, and returns the slice appended to.
func appendTarget(info *types.Info, asg *ast.AssignStmt) (appendDest, bool) {
	for i, rhs := range asg.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			continue
		}
		if i >= len(asg.Lhs) {
			continue
		}
		switch lhs := ast.Unparen(asg.Lhs[i]).(type) {
		case *ast.Ident:
			if obj := identObject(info, lhs); obj != nil {
				return appendDest{obj: obj, root: obj, name: obj.Name()}, true
			}
		case *ast.SelectorExpr:
			obj := info.Uses[lhs.Sel]
			if obj == nil {
				continue
			}
			d := appendDest{obj: obj, name: types.ExprString(lhs)}
			x := ast.Unparen(lhs.X)
			for {
				sel, ok := x.(*ast.SelectorExpr)
				if !ok {
					break
				}
				x = ast.Unparen(sel.X)
			}
			if root, ok := x.(*ast.Ident); ok {
				d.root = identObject(info, root)
			}
			return d, true
		}
	}
	return appendDest{}, false
}

// identObject resolves an identifier to the object it defines or uses.
func identObject(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// sortedAfter reports whether obj is passed to a sort.* / slices.Sort*
// call somewhere after the range statement in the same function body — the
// canonical collect-then-sort pattern that restores determinism.
func sortedAfter(info *types.Info, funcBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	sorted := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return !sorted
		}
		fn := callee(info, call)
		if fn == nil || isMethod(fn) {
			return !sorted
		}
		if isSortFunc(fn) && mentionsObject(info, call, obj) {
			sorted = true
		}
		return !sorted
	})
	return sorted
}

// isSortFunc recognizes the sorting entry points of sort and slices.
func isSortFunc(fn *types.Func) bool {
	switch {
	case fromPkg(fn, "sort"):
		switch fn.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
	case fromPkg(fn, "slices"):
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}
