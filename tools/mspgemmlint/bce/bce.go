// Package bce implements the bounds-check-elimination drift gate:
// it rebuilds the hot packages with -gcflags=-d=ssa/check_bce, folds
// the compiler's "Found IsInBounds" positions into per-function
// counts, and diffs them against the checked-in manifest of checks the
// PR 6 audit accepted. A new bounds check in a hot function fails CI
// with the offending position before it can cost a benchmark.
package bce

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// DefaultPackages is the audited hot-package set: the accumulator
// families, the engine and plan machinery, the scheduler, the semiring
// kernels, and the sparse containers.
var DefaultPackages = []string{
	"./internal/accum",
	"./internal/core",
	"./internal/parallel",
	"./internal/semiring",
	"./internal/sparse",
}

// DefaultManifest is the manifest path relative to the module root.
const DefaultManifest = "tools/bce.manifest"

// check identifies one class of residual bounds check: a file, the
// enclosing top-level function, and the SSA check kind.
type check struct {
	// File is the module-relative source path.
	File string
	// Func is the enclosing top-level function or method name, or
	// "<file>" for checks outside any function.
	Func string
	// Kind is the compiler's check name (IsInBounds, IsSliceInBounds).
	Kind string
}

// finding is one raw compiler report with its position retained for
// diagnostics.
type finding struct {
	// check classifies the finding.
	check
	// Pos is the compiler-reported file:line:col.
	Pos string
	// Hot records whether the enclosing function is annotated
	// //mspgemm:hotpath.
	Hot bool
}

// Run executes the gate: rebuild, normalize, diff against the manifest
// at manifestPath (module-relative or absolute). With write set, the
// manifest is regenerated instead of diffed. The report carries
// human-readable detail either way; ok is false when drift was found.
func Run(moduleDir string, packages []string, manifestPath string, write bool) (report string, ok bool, err error) {
	if len(packages) == 0 {
		packages = DefaultPackages
	}
	if manifestPath == "" {
		manifestPath = DefaultManifest
	}
	if !filepath.IsAbs(manifestPath) {
		manifestPath = filepath.Join(moduleDir, manifestPath)
	}
	findings, err := compileFindings(moduleDir, packages)
	if err != nil {
		return "", false, err
	}
	current := countChecks(findings)
	if write {
		if err := writeManifest(manifestPath, packages, current); err != nil {
			return "", false, err
		}
		return fmt.Sprintf("wrote %d bounds-check entries to %s\n", len(current), manifestPath), true, nil
	}
	accepted, err := readManifest(manifestPath)
	if err != nil {
		return "", false, err
	}
	return diff(accepted, current, findings)
}

// compileFindings rebuilds the packages with the check_bce debug flag
// and maps every reported position to its enclosing function.
func compileFindings(moduleDir string, packages []string) ([]finding, error) {
	args := append([]string{"build", "-gcflags=-d=ssa/check_bce"}, packages...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	// The compiler exits 0; check_bce output is informational. A
	// non-zero exit means the build itself is broken.
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-d=ssa/check_bce: %v\n%s", err, out.String())
	}
	locator := newFuncLocator(moduleDir)
	var findings []finding
	for _, line := range strings.Split(out.String(), "\n") {
		line = strings.TrimSpace(line)
		// Skip package headers ("# maskedspgemm/internal/accum"),
		// compiler-generated code, and blanks.
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "<autogenerated>") {
			continue
		}
		f, skip, err := parseFinding(line, locator)
		if err != nil {
			return nil, err
		}
		if skip {
			continue
		}
		findings = append(findings, f)
	}
	return findings, nil
}

// parseFinding decodes one "path:line:col: Found Kind" compiler line.
// skip reports a finding the audit leaves out: one inside a generic
// function's body, or in a file outside the module (the standard
// library's generic sorts). The compiler reports a generic body only in
// the audited packages that instantiate it with concrete types, once per
// instantiation, so its count would follow where the code is used rather
// than the code itself. The gate therefore audits non-generic functions.
func parseFinding(line string, locator *funcLocator) (f finding, skip bool, err error) {
	posEnd := strings.Index(line, ": ")
	if posEnd < 0 {
		return finding{}, false, fmt.Errorf("unexpected check_bce line %q", line)
	}
	pos, msg := line[:posEnd], line[posEnd+2:]
	kind := strings.TrimPrefix(msg, "Found ")
	parts := strings.Split(pos, ":")
	if len(parts) < 2 {
		return finding{}, false, fmt.Errorf("unexpected check_bce position %q", pos)
	}
	file := parts[0]
	lineNo, err := strconv.Atoi(parts[1])
	if err != nil {
		return finding{}, false, fmt.Errorf("unexpected check_bce position %q", pos)
	}
	if filepath.IsAbs(file) {
		if rel, err := filepath.Rel(locator.moduleDir, file); err != nil || !filepath.IsLocal(rel) {
			return finding{}, true, nil
		}
	}
	fe, err := locator.enclosing(file, lineNo)
	if err != nil {
		return finding{}, false, err
	}
	return finding{
		check: check{File: filepath.ToSlash(file), Func: fe.name, Kind: kind},
		Pos:   pos,
		Hot:   fe.hot,
	}, fe.generic, nil
}

// funcLocator maps file:line positions to enclosing top-level
// functions, parsing each source file once.
type funcLocator struct {
	// moduleDir roots the compiler's relative paths.
	moduleDir string
	// files caches parse results by path.
	files map[string]*locatedFile
}

// locatedFile is one parsed file's function extents.
type locatedFile struct {
	// funcs are the top-level function extents in declaration order.
	funcs []funcExtent
}

// funcExtent is one top-level function's line range and hot-path
// annotation state.
type funcExtent struct {
	// name is the function or method name.
	name string
	// start and end are the inclusive line range, doc comment included.
	start, end int
	// hot records a //mspgemm:hotpath annotation.
	hot bool
	// generic records type parameters on the function or its receiver.
	generic bool
}

// newFuncLocator returns a locator rooted at the module directory.
func newFuncLocator(moduleDir string) *funcLocator {
	return &funcLocator{moduleDir: moduleDir, files: make(map[string]*locatedFile)}
}

// enclosing returns the extent of the top-level function containing
// the line, named "<file>" when outside any function.
func (l *funcLocator) enclosing(file string, line int) (funcExtent, error) {
	lf, ok := l.files[file]
	if !ok {
		path := file
		if !filepath.IsAbs(path) {
			path = filepath.Join(l.moduleDir, path)
		}
		fset := token.NewFileSet()
		parsed, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return funcExtent{}, fmt.Errorf("locating %s:%d: %v", file, line, err)
		}
		lf = &locatedFile{}
		for _, decl := range parsed.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			hot := false
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					if strings.HasPrefix(c.Text, "//mspgemm:hotpath") {
						hot = true
					}
				}
			}
			lf.funcs = append(lf.funcs, funcExtent{
				name:    fd.Name.Name,
				start:   fset.Position(fd.Pos()).Line,
				end:     fset.Position(fd.End()).Line,
				hot:     hot,
				generic: isGeneric(fd),
			})
		}
		l.files[file] = lf
	}
	for _, fe := range lf.funcs {
		if line >= fe.start && line <= fe.end {
			return fe, nil
		}
	}
	return funcExtent{name: "<file>"}, nil
}

// isGeneric reports whether fd declares type parameters or is a method
// of a generic type (its receiver type is instantiated, T[P] or T[P, Q]).
func isGeneric(fd *ast.FuncDecl) bool {
	if fd.Type.TypeParams != nil {
		return true
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch recv.(type) {
	case *ast.IndexExpr, *ast.IndexListExpr:
		return true
	}
	return false
}

// countChecks folds raw findings into per-(file, func, kind) counts.
// Counts, not line numbers, keep the manifest stable across unrelated
// edits that merely shift code within a function.
func countChecks(findings []finding) map[check]int {
	counts := make(map[check]int)
	for _, f := range findings {
		counts[f.check]++
	}
	return counts
}

// writeManifest renders the counts in the canonical sorted format.
func writeManifest(path string, packages []string, counts map[check]int) error {
	keys := make([]check, 0, len(counts))
	for c := range counts {
		keys = append(keys, c)
	}
	sortChecks(keys)
	var b strings.Builder
	b.WriteString("# Residual bounds checks accepted by the BCE audit (PR 6).\n")
	b.WriteString("# Format: file function check-kind count\n")
	b.WriteString("# Regenerate: go run ./tools/mspgemmlint bce -write\n")
	fmt.Fprintf(&b, "# Packages: %s\n", strings.Join(packages, " "))
	for _, c := range keys {
		fmt.Fprintf(&b, "%s %s %s %d\n", c.File, c.Func, c.Kind, counts[c])
	}
	return os.WriteFile(path, []byte(b.String()), 0o666)
}

// readManifest parses the manifest back into counts.
func readManifest(path string) (map[check]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading manifest: %v (regenerate with: mspgemmlint bce -write)", err)
	}
	counts := make(map[check]int)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("%s:%d: malformed manifest line %q", path, i+1, line)
		}
		n, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: malformed count %q", path, i+1, fields[3])
		}
		counts[check{File: fields[0], Func: fields[1], Kind: fields[2]}] = n
	}
	return counts, nil
}

// diff compares current counts against the accepted manifest. New or
// increased checks fail hard, with positions listed and an escalated
// message for hot-path functions; vanished checks ask for a manifest
// regeneration so the record stays exact.
func diff(accepted, current map[check]int, findings []finding) (string, bool, error) {
	var b strings.Builder
	bad := false
	keys := make([]check, 0, len(current))
	for c := range current {
		keys = append(keys, c)
	}
	sortChecks(keys)
	for _, c := range keys {
		extra := current[c] - accepted[c]
		if extra <= 0 {
			continue
		}
		bad = true
		if c.Func != "<file>" && isHot(findings, c) {
			fmt.Fprintf(&b, "bce: %d new %s check(s) in //mspgemm:hotpath function %s (%s); the flat-loop contract requires restoring bounds-check elimination or re-auditing:\n",
				extra, c.Kind, c.Func, c.File)
		} else {
			fmt.Fprintf(&b, "bce: %d new %s check(s) in %s (%s):\n", extra, c.Kind, c.Func, c.File)
		}
		for _, f := range findings {
			if f.check == c {
				fmt.Fprintf(&b, "\t%s: Found %s\n", f.Pos, f.Kind)
			}
		}
	}
	stale := make([]check, 0)
	for c, n := range accepted {
		if current[c] < n {
			stale = append(stale, c)
		}
	}
	sortChecks(stale)
	for _, c := range stale {
		bad = true
		fmt.Fprintf(&b, "bce: manifest lists %d %s check(s) in %s (%s) but the build has %d; manifest is stale, regenerate with: mspgemmlint bce -write\n",
			accepted[c], c.Kind, c.Func, c.File, current[c])
	}
	if !bad {
		fmt.Fprintf(&b, "bce: %d accepted bounds checks, no drift\n", total(current))
	}
	return b.String(), !bad, nil
}

// isHot reports whether any finding for the check saw a hot-path
// annotation on its enclosing function.
func isHot(findings []finding, c check) bool {
	for _, f := range findings {
		if f.check == c && f.Hot {
			return true
		}
	}
	return false
}

// total sums the counts.
func total(counts map[check]int) int {
	n := 0
	for _, v := range counts {
		n += v
	}
	return n
}

// sortChecks orders checks by file, function, kind.
func sortChecks(keys []check) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Kind < b.Kind
	})
}
