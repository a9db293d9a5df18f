// Package lint is saravet's repo-aware static-analysis suite: a small
// go/analysis-style framework (the toolchain image carries no
// golang.org/x/tools, so the Analyzer/Pass shape is reimplemented on the
// standard library's go/ast + go/types) plus the three analyzers that turn
// this repo's dynamically-enforced invariants into `go vet`-time errors:
//
//   - hotpathalloc: functions annotated //sara:hotpath — the kernel step
//     loop, the subsystem Ticks, every NextActivity — and everything they
//     transitively call inside the module must be allocation-free.
//   - wakebound: NextActivity/Wake implementations must not derive
//     now-relative bounds from mutable receiver state (the PR 7 stale
//     lazy-cursor wake-bug class).
//   - determinism: simulation and report code must not consult wall-clock
//     time, the global math/rand stream, or unsorted map iteration.
//
// A fourth analyzer, directive, validates the //sara: comment vocabulary
// itself, so a typoed suppression fails loudly instead of silently
// allowlisting nothing.
//
// Escape hatches are per-line comment directives carrying a justification
// (see directive.go); the directive analyzer rejects a justification-less
// suppression as malformed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, resolved to a concrete source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one static check, the stdlib-shaped analogue of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns the full saravet suite in its fixed run order.
func All() []*Analyzer {
	return []*Analyzer{
		Directive(),
		HotPathAlloc(),
		WakeBound(),
		Determinism(),
	}
}

// Facts is the cross-package knowledge one package's pass exports for its
// dependents, serialized as JSON into go vet's .vetx slot (or carried
// in-process by the standalone driver). Hotpath holds the FuncKey of
// every //sara:hotpath-annotated function, so a caller package can verify
// that the module-internal functions its own hot paths invoke are
// themselves under the allocation-free contract.
type Facts struct {
	Hotpath []string `json:"hotpath,omitempty"`
}

// Has reports whether key is in the exported hotpath set.
func (f *Facts) Has(key string) bool {
	if f == nil {
		return false
	}
	for _, k := range f.Hotpath {
		if k == key {
			return true
		}
	}
	return false
}

// ScanFacts extracts the facts a package exports from its syntax alone:
// the FuncKey of every //sara:hotpath-annotated declaration in non-test
// files. Being purely syntactic keeps fact extraction possible for
// packages the driver never type-checks (dependency-only module packages
// in a narrowed run, VetxOnly vet units).
func ScanFacts(fset *token.FileSet, files []*ast.File) Facts {
	var facts Facts
	for _, f := range files {
		if isTestFile(fset, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !hasDirective(fd.Doc, VerbHotpath) {
				continue
			}
			key := fd.Name.Name
			if fd.Recv != nil {
				key = recvTypeName(fd) + "." + key
			}
			facts.Hotpath = append(facts.Hotpath, key)
		}
	}
	sort.Strings(facts.Hotpath)
	return facts
}

// FuncKey names a function or method the way Facts records it:
// "Recv.Name" with any pointer stripped from the receiver, or "Name" for
// a plain function.
func FuncKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// Pass carries one package's syntax, types and cross-package facts
// through the analyzer suite.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Module is the module path; analyzers that scope themselves to
	// module-internal code (determinism, hotpathalloc's cross-package
	// rule) treat an empty Module as "everything is in scope", which the
	// fixture tests rely on.
	Module string

	// Facts maps dependency import paths to their exported facts. A
	// missing entry means "no facts" — a hot-path call into such a
	// package is flagged, never silently trusted.
	Facts map[string]*Facts

	current *Analyzer
	dirs    *directiveIndex
	diags   []Diagnostic
}

// InModule reports whether import path is inside the analyzed module.
func (p *Pass) InModule(path string) bool {
	if p.Module == "" {
		return true
	}
	return path == p.Module || strings.HasPrefix(path, p.Module+"/")
}

// SourceFiles yields the non-test files of the pass. The suite's
// contracts cover simulator and tool code; _test.go files host the
// differential harnesses and may use wall clocks, math/rand and scratch
// allocation freely.
func (p *Pass) SourceFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		out = append(out, f)
	}
	return out
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	name := fset.Position(f.Package).Filename
	return strings.HasSuffix(name, "_test.go")
}

// Reportf records a finding at pos unless a suppression directive for
// verb is attached to that line (verb "" means the finding has no escape
// hatch). Findings in _test.go files are dropped wholesale.
func (p *Pass) Reportf(pos token.Pos, verb string, format string, args ...any) {
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	if verb != "" && p.directives().suppressed(position, verb) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.current.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) directives() *directiveIndex {
	if p.dirs == nil {
		p.dirs = indexDirectives(p.Fset, p.Files)
	}
	return p.dirs
}

// TypeOf is a nil-tolerant Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf resolves the object behind a call's function expression:
// the *types.Func for static calls and method calls, a *types.Builtin
// for builtins, a *types.TypeName for conversions, nil for indirect
// calls through function values.
func (p *Pass) ObjectOf(fun ast.Expr) types.Object {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[f]
	case *ast.SelectorExpr:
		return p.Info.Uses[f.Sel]
	}
	return nil
}

// RunPackage runs the analyzer suite over the pass and returns the
// findings sorted by position.
func RunPackage(p *Pass, analyzers []*Analyzer) ([]Diagnostic, error) {
	for _, a := range analyzers {
		p.current = a
		if err := a.Run(p); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, p.Pkg.Path(), err)
		}
	}
	SortDiagnostics(p.diags)
	return p.diags, nil
}

// SortDiagnostics orders findings by (file, line, column, analyzer,
// message) so saravet's output — and therefore CI logs and the CLI tests
// — is deterministic by construction.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
