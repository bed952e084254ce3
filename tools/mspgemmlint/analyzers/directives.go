// Package analyzers holds the mspgemmlint invariant suite: one
// analyzer per repo contract (plan immutability, options/plan-key
// hygiene, budget lock order, hot-path shape, nil-safe tokens, doc
// coverage), all driven by the `//mspgemm:` annotation grammar defined
// in DESIGN.md §16.
package analyzers

import (
	"go/ast"
	"go/token"
	"strings"

	"maskedspgemm/tools/mspgemmlint/analysis"
)

// Directive names understood by the suite. Anything else after
// "//mspgemm:" is flagged by the hotpath analyzer as a likely typo.
const (
	// DirHotpath marks a function whose body must stay flat: no defer,
	// closures, interface conversions, or map iteration.
	DirHotpath = "hotpath"
	// DirPlanwrite marks a function allowed to assign fields of
	// //mspgemm:immutable types (constructors and their analysis helpers).
	DirPlanwrite = "planwrite"
	// DirImmutable marks a type whose fields may only be written inside
	// //mspgemm:planwrite functions.
	DirImmutable = "immutable"
	// DirNilsafe marks a type whose pointer-receiver methods must guard
	// against a nil receiver before using it.
	DirNilsafe = "nilsafe"
)

// knownDirectives is the full annotation vocabulary.
var knownDirectives = map[string]bool{
	DirHotpath:   true,
	DirPlanwrite: true,
	DirImmutable: true,
	DirNilsafe:   true,
}

// directivePrefix introduces every annotation. Go treats "//tool:rule"
// comments as directives, so gofmt keeps them attached.
const directivePrefix = "//mspgemm:"

// Directive is one parsed //mspgemm: annotation.
type Directive struct {
	// Name is the word after the colon ("hotpath").
	Name string
	// Pos locates the comment.
	Pos token.Pos
}

// parseDirectives extracts the //mspgemm: annotations from a comment
// group.
func parseDirectives(doc *ast.CommentGroup) []Directive {
	if doc == nil {
		return nil
	}
	var ds []Directive
	for _, c := range doc.List {
		if !strings.HasPrefix(c.Text, directivePrefix) {
			continue
		}
		name := strings.TrimPrefix(c.Text, directivePrefix)
		// Tolerate trailing explanation after whitespace.
		if i := strings.IndexAny(name, " \t"); i >= 0 {
			name = name[:i]
		}
		ds = append(ds, Directive{Name: name, Pos: c.Pos()})
	}
	return ds
}

// hasDirective reports whether the comment group carries the named
// annotation.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	for _, d := range parseDirectives(doc) {
		if d.Name == name {
			return true
		}
	}
	return false
}

// annotatedTypes returns the names of package-level types annotated
// with the named directive, checking both the TypeSpec doc and the
// enclosing GenDecl doc (single-spec declarations attach the comment
// to the decl).
func annotatedTypes(files []*ast.File, name string) map[string]bool {
	out := make(map[string]bool)
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if hasDirective(ts.Doc, name) || (len(gd.Specs) == 1 && hasDirective(gd.Doc, name)) {
					out[ts.Name.Name] = true
				}
			}
		}
	}
	return out
}

// forEachFunc walks every function declaration in the pass's non-test
// files, reporting whether its doc carries each directive of interest.
func forEachFunc(pass *analysis.Pass, fn func(file *ast.File, decl *ast.FuncDecl)) {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn(f, fd)
		}
	}
}
