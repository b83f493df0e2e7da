package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath checks functions annotated with a `//quack:hotpath` doc
// comment — the per-row/per-morsel loops in internal/exec,
// internal/table and internal/vector. Inside a marked function (and
// any function literal nested in it) it flags:
//
//   - time.Now calls outside an `x != nil` profiling guard — wall-clock
//     reads cost a vDSO call per row when profiling is off;
//   - fmt.Sprintf/Sprint/Sprintln/Errorf anywhere except as a panic
//     argument — formatting allocates on every row (panic paths are
//     cold by definition);
//   - make() inside a for/range loop — a fresh allocation per
//     iteration; hoist the buffer out of the loop and reuse it;
//   - a function literal inside a for/range loop — a closure allocated
//     per iteration and an indirect call per row;
//   - a call returning a boxed types.Value (or a slice of them) inside a
//     for/range loop — Vector.Get, Chunk.Row, types.New*: the typed
//     payload slices exist so per-row code never boxes;
//   - calls through a profiler hook (*Profiler / *OpProfile values)
//     with no nil guard — the profiling-off contract is one pointer
//     test, which only holds when every hook call sits behind one.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "allocation/clock/unguarded-hook work in //quack:hotpath functions",
	Run:  runHotpath,
}

// hotpathMarker is the doc-comment line that opts a function into the
// check.
const hotpathMarker = "//quack:hotpath"

func runHotpath(pass *Pass) {
	for _, fs := range funcBodies(pass.Package) {
		if !isHotpath(fs.decl) {
			continue
		}
		checkHotFunc(pass, fs.decl.Body)
	}
}

func isHotpath(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathMarker {
			return true
		}
	}
	return false
}

func checkHotFunc(pass *Pass, body *ast.BlockStmt) {
	info := pass.Info
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && insideLoop(stack, body) {
			pass.Reportf(lit.Pos(), "function literal inside a loop in a //quack:hotpath function allocates a closure per iteration; hoist it out of the loop or make it a method")
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if insideLoop(stack, body) && returnsBoxedValue(pass, call) {
			pass.Reportf(call.Pos(), "call returning a boxed types.Value inside a loop in a //quack:hotpath function; read the vector's typed payload (I64/F64/Str/...) instead")
			return true
		}
		if isPkgCall(info, call, "time", "Now") {
			if !nilGuarded(info, stack, nil) {
				pass.Reportf(call.Pos(), "time.Now in a //quack:hotpath function outside a profiling nil-guard: wrap it in `if <hook> != nil { ... }` so the profiling-off cost stays one pointer test")
			}
			return true
		}
		if f := calleeFunc(info, call); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
			switch f.Name() {
			case "Sprintf", "Sprint", "Sprintln", "Errorf":
				if !insidePanic(info, stack) {
					pass.Reportf(call.Pos(), "fmt.%s in a //quack:hotpath function allocates per row; move formatting off the hot path (panic arguments are exempt)", f.Name())
				}
			}
			return true
		}
		if isBuiltin(info, call, "make") && insideLoop(stack, body) {
			pass.Reportf(call.Pos(), "make() inside a loop in a //quack:hotpath function allocates per iteration; hoist the buffer out of the loop and reuse it")
			return true
		}
		if hook := hookBase(info, call); hook != nil && !nilGuarded(info, stack, hook) {
			pass.Reportf(call.Pos(), "profiler hook call without a nil guard in a //quack:hotpath function: guard with `if %s != nil` (a nil hook is the profiling-off state)", exprString(hook))
		}
		return true
	})
}

// returnsBoxedValue reports whether the call yields the engine's boxed
// scalar — the named type Value of a package called types (or of the
// package under analysis, which is how the fixtures declare it) — or a
// slice of them.
func returnsBoxedValue(pass *Pass, call *ast.CallExpr) bool {
	boxed := func(t types.Type) bool {
		if sl, ok := types.Unalias(t).(*types.Slice); ok {
			t = sl.Elem()
		}
		n, ok := types.Unalias(t).(*types.Named)
		if !ok || n.Obj().Name() != "Value" || n.Obj().Pkg() == nil {
			return false
		}
		return n.Obj().Pkg().Name() == "types" || n.Obj().Pkg() == pass.Types
	}
	switch t := pass.Info.TypeOf(call).(type) {
	case nil:
		return false
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if boxed(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return boxed(t)
	}
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == name
}

// insideLoop reports whether the node (whose ancestor stack is given)
// sits inside a for or range statement within body.
func insideLoop(stack []ast.Node, body *ast.BlockStmt) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
		if stack[i] == body {
			return false
		}
	}
	return false
}

func insidePanic(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if call, ok := stack[i].(*ast.CallExpr); ok && isBuiltin(info, call, "panic") {
			return true
		}
	}
	return false
}

// hookBase returns the sub-expression of a method call's receiver
// chain whose static type is a profiler hook (*Profiler or
// *OpProfile), or nil. For `slot.Rows.Add(1)` it returns `slot`.
func hookBase(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	for expr := ast.Expr(sel.X); expr != nil; {
		if isHookType(info.TypeOf(expr)) {
			return expr
		}
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.CallExpr:
			expr = nil
		default:
			expr = nil
		}
	}
	return nil
}

func isHookType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		switch namedTypeName(p.Elem()) {
		case "Profiler", "OpProfile":
			return true
		}
	}
	return false
}

// nilGuarded reports whether the node with the given ancestor stack is
// protected by a nil check: either an enclosing `if x != nil { ... }`
// (guardExpr nil accepts any nil comparison; otherwise the compared
// expression must match guardExpr textually), or a preceding
// `if x == nil { return/continue/break }` in an enclosing block.
func nilGuarded(info *types.Info, stack []ast.Node, guardExpr ast.Expr) bool {
	want := ""
	if guardExpr != nil {
		want = exprString(guardExpr)
	}
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		// Only guards whose body contains the call count; a call in the
		// else branch of `if x != nil` is the unguarded path.
		if i+1 < len(stack) && stack[i+1] != ifs.Body {
			continue
		}
		if condHasNilCheck(ifs.Cond, token.NEQ, want) {
			return true
		}
	}
	// Early-bailout form: a prior statement in an enclosing block reads
	// `if x == nil { return }`.
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		var next ast.Node
		if i+1 < len(stack) {
			next = stack[i+1]
		}
		for _, st := range block.List {
			if next != nil && st == next {
				break
			}
			ifs, ok := st.(*ast.IfStmt)
			if !ok || !endsInBailout(ifs.Body) {
				continue
			}
			if condHasNilCheck(ifs.Cond, token.EQL, want) {
				return true
			}
		}
	}
	return false
}

func endsInBailout(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch s := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK
	}
	return false
}

// condHasNilCheck reports whether cond contains `expr <op> nil` (either
// operand order), where expr matches want ("" matches any expression).
func condHasNilCheck(cond ast.Expr, op token.Token, want string) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != op {
			return true
		}
		var other ast.Expr
		if isNilIdent(b.X) {
			other = b.Y
		} else if isNilIdent(b.Y) {
			other = b.X
		} else {
			return true
		}
		if want == "" || exprString(other) == want {
			found = true
		}
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "<expr>"
}
