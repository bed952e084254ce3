package analyzers

import (
	"go/ast"
	"go/types"

	"maskedspgemm/tools/mspgemmlint/analysis"
)

// Hotpath pins PR 6's flat-loop contract: functions annotated
// //mspgemm:hotpath are the accumulator Insert/Gather/Begin loops, row
// push kernels, and scheduler claim paths whose speed depends on the
// compiler seeing straight-line, allocation-free code. Inside them the
// analyzer bans the constructs that defeat that: defer (function-exit
// bookkeeping), closures (potential escapes), goroutine and select
// statements, map iteration (random order, hash walking), type
// asserts, interface method calls, any conversion of a concrete value
// to an interface (hidden allocation + dynamic dispatch), and a method
// call through a type-parameter receiver two or more loops deep. Go
// compiles generic code once per GC shape, so such a call is an indirect
// call through the instantiation's dictionary; in an inner loop that is
// one per product (a per-flop call), where moving the loop into the
// method makes it one per row.
//
// It also owns the annotation vocabulary: any //mspgemm: comment whose
// directive is not in the known set is flagged as a likely typo, so a
// misspelled annotation cannot silently disable a contract.
var Hotpath = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "forbid defer, closures, map iteration, interface conversions, " +
		"and inner-loop type-parameter method calls inside //mspgemm:hotpath functions (flat-loop contract)",
	Run: runHotpath,
}

func runHotpath(pass *analysis.Pass) error {
	checkDirectiveSpelling(pass)
	forEachFunc(pass, func(_ *ast.File, fd *ast.FuncDecl) {
		if fd.Body == nil || !hasDirective(fd.Doc, DirHotpath) {
			return
		}
		checkHotBody(pass, fd)
	})
	return nil
}

// checkDirectiveSpelling flags unknown //mspgemm: directives anywhere
// in the package's non-test files.
func checkDirectiveSpelling(pass *analysis.Pass) {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, cg := range f.Comments {
			for _, d := range parseDirectives(cg) {
				if !knownDirectives[d.Name] {
					pass.Reportf(d.Pos,
						"unknown directive //mspgemm:%s (known: hotpath, immutable, nilsafe, planwrite); a typo here silently disables the contract",
						d.Name)
				}
			}
		}
	}
}

// checkHotBody walks one annotated function body and reports every
// banned construct.
func checkHotBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	checkHotNode(pass, fd.Name.Name, fd.Body, 0)
}

// checkHotNode reports the banned constructs under n, which runs inside
// depth enclosing loops. The parts of a loop that run once (a for
// statement's init, a range expression) stay at the loop's own depth;
// the parts that run per iteration are one level deeper.
func checkHotNode(pass *analysis.Pass, name string, n ast.Node, depth int) {
	within := func(depth int, nodes ...ast.Node) {
		for _, n := range nodes {
			if n != nil {
				checkHotNode(pass, name, n, depth)
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			within(depth, n.Init)
			within(depth+1, n.Cond, n.Post, n.Body)
			return false
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map iteration in //mspgemm:hotpath function %s; hash-order walks do not belong in hot loops", name)
				}
			}
			within(depth, n.X)
			within(depth+1, n.Body)
			return false
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in //mspgemm:hotpath function %s; hot loops must stay free of function-exit bookkeeping", name)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in //mspgemm:hotpath function %s; hot loops must not spawn goroutines", name)
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select in //mspgemm:hotpath function %s; channel operations do not belong in hot loops", name)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure in //mspgemm:hotpath function %s; closures risk heap escapes of captured loop state", name)
			return false
		case *ast.TypeAssertExpr:
			pass.Reportf(n.Pos(), "type assertion in //mspgemm:hotpath function %s; dynamic type checks do not belong in hot loops", name)
		case *ast.CallExpr:
			checkHotCall(pass, name, n)
			if depth >= 2 {
				checkTypeParamCall(pass, name, n)
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					checkInterfaceConversion(pass, name, n.Lhs[i], n.Rhs[i])
				}
			}
		}
		return true
	})
}

// checkTypeParamCall reports a method call whose receiver is a value of
// type-parameter type. Generic code is compiled once per GC shape, so
// the call goes through the instantiation's dictionary: an indirect,
// never-inlined call. The caller invokes this only two or more loops
// deep, where such a call runs once per inner iteration — in a push
// driver, once per product.
func checkTypeParamCall(pass *analysis.Pass, fn string, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	xt, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !xt.IsValue() {
		return
	}
	if tp, ok := types.Unalias(xt.Type).(*types.TypeParam); ok {
		pass.Reportf(call.Pos(),
			"method call %s.%s through type parameter %s two loops deep in //mspgemm:hotpath function %s; generic code is compiled per GC shape, so this is a dictionary call per inner iteration — move the inner loop into the method",
			types.ExprString(sel.X), sel.Sel.Name, tp.Obj().Name(), fn)
	}
}

// checkHotCall reports interface conversions hidden in a call: an
// explicit conversion to an interface type, an interface-typed method
// receiver, or a concrete argument passed to an interface parameter.
func checkHotCall(pass *analysis.Pass, fn string, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Explicit conversion T(x).
		if isInterface(tv.Type) && len(call.Args) == 1 && isConcrete(pass, call.Args[0]) {
			pass.Reportf(call.Pos(),
				"conversion to interface type %s in //mspgemm:hotpath function %s; interface conversions allocate and add dynamic dispatch",
				tv.Type, fn)
		}
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if xt, ok := pass.TypesInfo.Types[sel.X]; ok && xt.IsValue() && isInterface(xt.Type) {
			pass.Reportf(call.Pos(),
				"interface method call %s.%s in //mspgemm:hotpath function %s; dynamic dispatch does not belong in hot loops",
				xt.Type, sel.Sel.Name, fn)
		}
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		// Builtins (len, append, ...) have no signature and no
		// interface parameters.
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				// arg... forwards the slice unchanged; no per-element
				// conversion happens.
				continue
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if isInterface(pt) && isConcrete(pass, arg) {
			pass.Reportf(arg.Pos(),
				"argument converts to interface type %s in //mspgemm:hotpath function %s; interface conversions allocate and add dynamic dispatch",
				pt, fn)
		}
	}
}

// checkInterfaceConversion reports a concrete value assigned to an
// interface-typed location.
func checkInterfaceConversion(pass *analysis.Pass, fn string, lhs, rhs ast.Expr) {
	lt, ok := pass.TypesInfo.Types[lhs]
	if !ok || !isInterface(lt.Type) {
		// Also covers := definitions, whose LHS type is the RHS type —
		// a definition never converts.
		return
	}
	if isConcrete(pass, rhs) {
		pass.Reportf(rhs.Pos(),
			"assignment converts a concrete value to interface type %s in //mspgemm:hotpath function %s; interface conversions allocate",
			lt.Type, fn)
	}
}

// isInterface reports whether t is a true interface type. Type
// parameters are excluded even though their underlying type is the
// constraint interface: a value of type-parameter type is not boxed, so
// passing or assigning it converts nothing. Method calls through one are
// not free, though — generic code is compiled per GC shape, so they are
// dictionary calls — and checkTypeParamCall reports those in inner
// loops.
func isInterface(t types.Type) bool {
	t = types.Unalias(t)
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		if _, ok := named.Underlying().(*types.Interface); ok {
			return true
		}
		return false
	}
	_, ok := t.(*types.Interface)
	return ok
}

// isConcrete reports whether expr is a typed non-interface, non-nil
// value: the shapes whose conversion to an interface materializes an
// itab and possibly an allocation.
func isConcrete(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.IsNil() || tv.Type == nil {
		return false
	}
	if _, untyped := tv.Type.(*types.Basic); untyped && tv.Type.(*types.Basic).Info()&types.IsUntyped != 0 {
		return false
	}
	return !isInterface(tv.Type)
}
