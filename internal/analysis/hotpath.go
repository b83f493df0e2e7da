package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Hotpath checks functions annotated with a `//quack:hotpath` doc
// comment — the per-row/per-morsel loops in internal/exec,
// internal/table and internal/vector. Inside a marked function (and
// any function literal nested in it) it flags:
//
//   - a clock read inside a for/range loop — time.Now, time.Since, or a
//     call to a function of the package whose body calls either (a
//     clock wrapper such as the executor's nanotime) — a clock read per
//     row; every query is profiled, so time a chunk or a morsel at its
//     boundary instead;
//   - fmt.Sprintf/Sprint/Sprintln/Errorf anywhere except as a panic
//     argument — formatting allocates on every row (panic paths are
//     cold by definition);
//   - make() inside a for/range loop — a fresh allocation per
//     iteration; hoist the buffer out of the loop and reuse it;
//   - a function literal inside a for/range loop — a closure allocated
//     per iteration and an indirect call per row;
//   - a call returning a boxed types.Value (or a slice of them) inside a
//     for/range loop — Vector.Get, Chunk.Row, types.New*: the typed
//     payload slices exist so per-row code never boxes.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "allocation/clock work in //quack:hotpath functions",
	Run:  runHotpath,
}

// hotpathMarker is the doc-comment line that opts a function into the
// check.
const hotpathMarker = "//quack:hotpath"

func runHotpath(pass *Pass) {
	fns := funcBodies(pass.Package)
	clocks := clockWrappers(pass.Info, fns)
	for _, fs := range fns {
		if !isHotpath(fs.decl) {
			continue
		}
		checkHotFunc(pass, fs.decl.Body, clocks)
	}
}

// isClockRead reports whether call reads the clock: time.Now, time.Since
// or one of the package's clock wrappers.
func isClockRead(info *types.Info, call *ast.CallExpr, clocks map[*types.Func]bool) bool {
	return isPkgCall(info, call, "time", "Now") || isPkgCall(info, call, "time", "Since") || clocks[calleeFunc(info, call)]
}

// clockWrappers returns the package's functions whose bodies call
// time.Now or time.Since.
func clockWrappers(info *types.Info, fns []funcScope) map[*types.Func]bool {
	clocks := map[*types.Func]bool{}
	for _, fs := range fns {
		ast.Inspect(fs.decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isClockRead(info, call, nil) {
				if f, ok := info.Defs[fs.decl.Name].(*types.Func); ok {
					clocks[f] = true
				}
				return false
			}
			return true
		})
	}
	return clocks
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

func checkHotFunc(pass *Pass, body *ast.BlockStmt, clocks map[*types.Func]bool) {
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
		if isClockRead(info, call, clocks) && insideLoop(stack, body) {
			pass.Reportf(call.Pos(), "clock read inside a loop in a //quack:hotpath function reads the clock per iteration; time the chunk or morsel at its boundary instead")
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
