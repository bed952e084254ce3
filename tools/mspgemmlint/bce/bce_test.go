package bce

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureMod writes a one-package module whose hot function carries
// the given body and returns the module directory.
func fixtureMod(t *testing.T, body string) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module bcefixture\n\ngo 1.24\n")
	write("kernel.go", `// Package bcefixture exercises the BCE drift gate.
package bcefixture

// gather is the audited hot loop.
//
//mspgemm:hotpath
func gather(dst, src []int32, perm []int) int {
`+body+`}
`)
	return dir
}

// flatBody compiles without bounds checks: the manifest baseline.
const flatBody = `	n := 0
	for i := range dst {
		dst[i] = 0
		n++
	}
	return n
`

// checkedBody adds a permuted gather the compiler cannot prove in
// bounds: the synthetic drift.
const checkedBody = `	n := 0
	for i := range dst {
		dst[i] = src[perm[i]]
		n++
	}
	return n
`

func TestWriteThenClean(t *testing.T) {
	dir := fixtureMod(t, flatBody)
	manifest := filepath.Join(dir, "bce.manifest")
	report, ok, err := Run(dir, []string{"."}, manifest, true)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if !ok {
		t.Fatalf("write reported drift: %s", report)
	}
	report, ok, err = Run(dir, []string{"."}, manifest, false)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !ok {
		t.Fatalf("clean build reported drift: %s", report)
	}
	if !strings.Contains(report, "no drift") {
		t.Fatalf("unexpected clean report: %s", report)
	}
}

func TestNewCheckInHotFunctionFails(t *testing.T) {
	dir := fixtureMod(t, flatBody)
	manifest := filepath.Join(dir, "bce.manifest")
	if _, _, err := Run(dir, []string{"."}, manifest, true); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Inject the synthetic bounds check and re-run the gate.
	dir2 := fixtureMod(t, checkedBody)
	report, ok, err := Run(dir2, []string{"."}, manifest, false)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if ok {
		t.Fatalf("gate passed despite injected bounds check: %s", report)
	}
	for _, wantFrag := range []string{
		"//mspgemm:hotpath function gather",
		"kernel.go",
		"Found IsInBounds",
	} {
		if !strings.Contains(report, wantFrag) {
			t.Errorf("report missing %q:\n%s", wantFrag, report)
		}
	}
	// The report must carry the offending source position (file:line:col).
	if !regexp.MustCompile(`kernel\.go:\d+:\d+: Found IsInBounds`).MatchString(report) {
		t.Errorf("report missing offending position:\n%s", report)
	}
}

func TestRemovedCheckReportsStaleManifest(t *testing.T) {
	dir := fixtureMod(t, checkedBody)
	manifest := filepath.Join(dir, "bce.manifest")
	if _, _, err := Run(dir, []string{"."}, manifest, true); err != nil {
		t.Fatalf("write: %v", err)
	}
	dir2 := fixtureMod(t, flatBody)
	report, ok, err := Run(dir2, []string{"."}, manifest, false)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if ok {
		t.Fatalf("gate passed with a stale manifest: %s", report)
	}
	if !strings.Contains(report, "stale") || !strings.Contains(report, "-write") {
		t.Errorf("report should ask for regeneration:\n%s", report)
	}
}

func TestManifestMissing(t *testing.T) {
	dir := fixtureMod(t, flatBody)
	if _, _, err := Run(dir, []string{"."}, filepath.Join(dir, "absent.manifest"), false); err == nil {
		t.Fatal("expected an error for a missing manifest")
	}
}

// TestGenericBodiesNotAudited instantiates a generic gather and the
// standard library's generic sort with concrete types: their bodies are
// compiled into the package, but the gate audits only non-generic
// functions of the module, so the manifest of the flat build still
// holds.
func TestGenericBodiesNotAudited(t *testing.T) {
	dir := fixtureMod(t, flatBody)
	manifest := filepath.Join(dir, "bce.manifest")
	if _, _, err := Run(dir, []string{"."}, manifest, true); err != nil {
		t.Fatalf("write: %v", err)
	}
	dir2 := fixtureMod(t, flatBody)
	generic := `package bcefixture

import "slices"

type table[T any] struct{ vals []T }

// at is a generic-receiver method with an unprovable index. Both are
// kept out of line: inlined into use, their checks would be use's own.
//
//go:noinline
func (t *table[T]) at(perm []int, i int) T { return t.vals[perm[i]] }

// pick is a generic function with an unprovable index.
//
//go:noinline
func pick[T any](vals []T, perm []int, i int) T { return vals[perm[i]] }

// use instantiates both, and slices.Sort, with concrete types.
func use(perm []int, keys []int32) float64 {
	slices.Sort(keys)
	t := &table[float64]{vals: []float64{1}}
	return t.at(perm, 0) + pick([]float64{2}, perm, 0)
}
`
	if err := os.WriteFile(filepath.Join(dir2, "generic.go"), []byte(generic), 0o666); err != nil {
		t.Fatal(err)
	}
	report, ok, err := Run(dir2, []string{"."}, manifest, false)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !ok {
		t.Fatalf("generic instantiations reported as drift:\n%s", report)
	}
}
