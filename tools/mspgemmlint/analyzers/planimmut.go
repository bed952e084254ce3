package analyzers

import (
	"go/ast"
	"go/types"

	"maskedspgemm/tools/mspgemmlint/analysis"
)

// Planimmut pins DESIGN §8's ownership contract: a Plan and the slices
// it owns are immutable once published. Types opt in with
// //mspgemm:immutable; the only functions allowed to assign their
// fields (directly or through an owned slice element) are the ones
// annotated //mspgemm:planwrite — the constructors and their analysis
// helpers, which mutate a detached plan before publication.
var Planimmut = &analysis.Analyzer{
	Name: "planimmut",
	Doc: "flag writes to fields of //mspgemm:immutable types outside " +
		"//mspgemm:planwrite functions (plan ownership, DESIGN §8)",
	Run: runPlanimmut,
}

func runPlanimmut(pass *analysis.Pass) error {
	immutable := annotatedTypes(pass.Files, DirImmutable)
	if len(immutable) == 0 {
		return nil
	}
	forEachFunc(pass, func(_ *ast.File, fd *ast.FuncDecl) {
		if fd.Body == nil || hasDirective(fd.Doc, DirPlanwrite) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkImmutableWrite(pass, immutable, lhs)
				}
			case *ast.IncDecStmt:
				checkImmutableWrite(pass, immutable, n.X)
			}
			return true
		})
	})
	return nil
}

// checkImmutableWrite reports lhs when it writes a field of an
// immutable type, either directly (p.f = v) or through an owned slice
// or array element (p.f[i] = v).
func checkImmutableWrite(pass *analysis.Pass, immutable map[string]bool, lhs ast.Expr) {
	// Strip element and dereference layers down to the field selector.
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.ParenExpr:
			lhs = e.X
			continue
		case *ast.StarExpr:
			lhs = e.X
			continue
		}
		break
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	name, ok := immutableBase(pass, immutable, sel.X)
	if !ok {
		return
	}
	pass.Reportf(sel.Pos(),
		"write to field %s of //mspgemm:immutable type %s outside a //mspgemm:planwrite function (plans are immutable after construction, DESIGN §8)",
		sel.Sel.Name, name)
}

// immutableBase reports whether expr's type is (a pointer to) a named
// type in this package annotated //mspgemm:immutable, returning the
// type name. Generic instantiations resolve through their origin.
func immutableBase(pass *analysis.Pass, immutable map[string]bool, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return "", false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Origin().Obj()
	if obj.Pkg() != pass.Pkg || !immutable[obj.Name()] {
		return "", false
	}
	return obj.Name(), true
}
