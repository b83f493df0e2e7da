package analysis

import (
	"go/ast"
	"go/types"
)

// walkStack traverses root pre-order, passing each node along with the
// stack of its ancestors (outermost first, excluding the node itself).
// Returning false prunes the subtree.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// selectedField returns the *types.Var of the struct field a selector
// expression refers to, or nil when sel is not a field selection.
func selectedField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	f, _ := s.Obj().(*types.Var)
	return f
}

// namedTypeName unwraps pointers and aliases and returns the name of
// the underlying named type, or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// calleeFunc resolves the called function or method object of a call
// expression, or nil (builtin, func value, type conversion).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.ObjectOf(fun).(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.ObjectOf(fun.Sel).(*types.Func)
		return f
	}
	return nil
}

// isPkgCall reports whether call invokes pkgPath.name (a package-level
// function, matched by full import path suffix so fixture stubs can
// stand in for engine packages).
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Name() != name || f.Pkg() == nil {
		return false
	}
	return f.Pkg().Path() == pkgPath
}

// recvTypeName returns the name of the named type of a method callee's
// receiver, or "".
func recvTypeName(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil {
		return ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return namedTypeName(sig.Recv().Type())
}

// returnsOnlyError reports whether the function signature's results are
// exactly (error) or end in error.
func lastResultIsError(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// enclosingFuncs yields every FuncDecl and, nested beneath it, each
// FuncLit, so analyzers can treat a literal's body as part of its
// declaring function's scope.
func funcBodies(pkg *Package) []funcScope {
	var out []funcScope
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, funcScope{decl: fd, file: f})
		}
	}
	return out
}

type funcScope struct {
	decl *ast.FuncDecl
	file *ast.File
}
