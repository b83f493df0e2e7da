package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Pairedres flags unpaired resource acquisition: a buffer-pool
// Reserve/Alloc with no Release (and no update of a reserved-bytes
// ledger field that defers the release to Close) in the same function,
// and an os file open whose handle is neither closed nor stored away.
// The engine's memory budget is enforced entirely by Reserve/Release
// pairing — a leaked reservation permanently shrinks the budget for
// every query on the database; a leaked fd does the same to the
// process.
var Pairedres = &Analyzer{
	Name: "pairedres",
	Doc:  "pool Reserve/Alloc without Release, file open without Close",
	Run:  runPairedres,
}

func runPairedres(pass *Pass) {
	for _, fs := range funcBodies(pass.Package) {
		if poolMethod(pass, fs.decl) {
			continue // the pool's own implementation balances internally
		}
		checkPoolPairing(pass, fs.decl.Body)
		checkFilePairing(pass, fs.decl.Body)
	}
}

// poolMethod reports whether decl is a method on a *Pool type.
func poolMethod(pass *Pass, decl *ast.FuncDecl) bool {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return false
	}
	return strings.Contains(namedTypeName(pass.Info.TypeOf(decl.Recv.List[0].Type)), "Pool")
}

func checkPoolPairing(pass *Pass, body *ast.BlockStmt) {
	info := pass.Info
	var acquires []*ast.CallExpr
	released := false
	ledger := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			// Ledger updates can be atomic: h.reserved.Add(need).
			if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Add", "Sub", "Store":
					if ledgerName(sel.X) {
						ledger = true
					}
				}
			}
			recv := recvTypeName(info, s)
			if !strings.Contains(recv, "Pool") {
				return true
			}
			switch methodName(s) {
			case "Reserve", "Alloc":
				acquires = append(acquires, s)
			case "Release", "Free", "Freed":
				released = true
			}
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if ledgerName(lhs) {
					ledger = true
				}
			}
		case *ast.IncDecStmt:
			if ledgerName(s.X) {
				ledger = true
			}
		}
		return true
	})
	if released || ledger {
		return
	}
	for _, call := range acquires {
		pass.Reportf(call.Pos(), "pool %s with no Release and no reserved-ledger update in this function: the reservation leaks and shrinks the engine budget for every later query", methodName(call))
	}
}

func methodName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// ledgerName reports whether an assignment target looks like a
// reservation ledger (s.reserved += n, c.accounted = x): the idiom
// that hands pairing duty to the type's Close/release path.
func ledgerName(expr ast.Expr) bool {
	var name string
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return false
	}
	name = strings.ToLower(name)
	return strings.Contains(name, "reserved") || strings.Contains(name, "accounted")
}

// checkFilePairing flags os.Open/Create/OpenFile/CreateTemp results
// that are neither closed nor escape the function (returned, stored in
// a struct or field, or passed to another call).
func checkFilePairing(pass *Pass, body *ast.BlockStmt) {
	info := pass.Info
	type opened struct {
		obj  types.Object
		call *ast.CallExpr
	}
	var opens []opened
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isFileOpen(info, call) {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := info.ObjectOf(id); obj != nil {
				opens = append(opens, opened{obj: obj, call: call})
			}
		}
		return true
	})
	for _, o := range opens {
		if fileHandled(info, body, o.obj, o.call) {
			continue
		}
		pass.Reportf(o.call.Pos(), "file opened here is never closed and never escapes this function: the descriptor leaks (spill/WAL paths must pair every open with a Close)")
	}
}

func isFileOpen(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "os" {
		return false
	}
	switch f.Name() {
	case "Open", "Create", "OpenFile", "CreateTemp":
		return true
	}
	return false
}

// fileHandled reports whether obj (an opened file) is closed or
// escapes: Close called on it, used in a composite literal, assigned
// to a field, returned, or passed as an argument to any call other
// than its own methods.
func fileHandled(info *types.Info, body *ast.BlockStmt, obj types.Object, open *ast.CallExpr) bool {
	handled := false
	ast.Inspect(body, func(n ast.Node) bool {
		if handled {
			return false
		}
		switch s := n.(type) {
		case *ast.CallExpr:
			if s == open {
				return false
			}
			// f.Close() / f.Sync() keep it local; Close specifically
			// resolves the pairing. Passing f to another function hands
			// ownership off.
			if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.ObjectOf(id) == obj {
					if sel.Sel.Name == "Close" {
						handled = true
					}
					return true
				}
			}
			for _, arg := range s.Args {
				if usesObject(info, arg, obj) {
					handled = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range s.Elts {
				if usesObject(info, el, obj) {
					handled = true
				}
			}
			return false
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if usesObject(info, r, obj) {
					handled = true
				}
			}
			return false
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if _, isField := ast.Unparen(lhs).(*ast.SelectorExpr); isField && i < len(s.Rhs) && usesObject(info, s.Rhs[i], obj) {
					handled = true
				}
			}
			if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
				if _, isField := ast.Unparen(s.Lhs[0]).(*ast.SelectorExpr); isField && usesObject(info, s.Rhs[0], obj) {
					handled = true
				}
			}
		}
		return true
	})
	return handled
}

func usesObject(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
