package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"testing"

	"sara/internal/lint"
	"sara/internal/lint/linttest"
)

func TestDirective(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "directive"), lint.Directive())
}

func TestHotPathAlloc(t *testing.T) {
	linttest.RunWith(t, linttest.Config{Module: "example.com/hot"},
		filepath.Join("testdata", "hotpath"), lint.HotPathAlloc())
}

func TestWakeBound(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "wakebound"), lint.WakeBound())
}

func TestDeterminism(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "determinism"), lint.Determinism())
}

func TestScanFacts(t *testing.T) {
	const src = `package p

//sara:hotpath
func Plain() {}

//sara:hotpath
func (k *Kernel) Step() {}

//sara:hotpath
func (h Heap[T]) Top() {}

func unmarked() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	facts := lint.ScanFacts(fset, []*ast.File{f})
	want := []string{"Heap.Top", "Kernel.Step", "Plain"}
	if !reflect.DeepEqual(facts.Hotpath, want) {
		t.Fatalf("ScanFacts = %v, want %v", facts.Hotpath, want)
	}
	for _, k := range want {
		if !facts.Has(k) {
			t.Errorf("Has(%q) = false", k)
		}
	}
	if facts.Has("unmarked") {
		t.Error("Has(unmarked) = true")
	}

	// Annotations in _test.go files never become facts.
	tf, err := parser.ParseFile(fset, "p_test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if got := lint.ScanFacts(fset, []*ast.File{tf}); len(got.Hotpath) != 0 {
		t.Fatalf("ScanFacts over _test.go = %v, want empty", got.Hotpath)
	}
}

func TestSortDiagnostics(t *testing.T) {
	pos := func(file string, line, col int) token.Position {
		return token.Position{Filename: file, Line: line, Column: col}
	}
	ds := []lint.Diagnostic{
		{Pos: pos("b.go", 1, 1), Analyzer: "x", Message: "m"},
		{Pos: pos("a.go", 9, 2), Analyzer: "x", Message: "m"},
		{Pos: pos("a.go", 9, 1), Analyzer: "z", Message: "m"},
		{Pos: pos("a.go", 9, 1), Analyzer: "y", Message: "m"},
	}
	lint.SortDiagnostics(ds)
	got := make([]string, len(ds))
	for i, d := range ds {
		got[i] = d.String()
	}
	want := []string{
		"a.go:9:1: y: m",
		"a.go:9:1: z: m",
		"a.go:9:2: x: m",
		"b.go:1:1: x: m",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}
