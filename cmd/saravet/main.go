// Command saravet runs the repo's static-analysis suite (internal/lint):
// hotpathalloc, wakebound, determinism and the //sara: directive
// validator.
//
// Three modes:
//
//	saravet [packages]            standalone; loads the module (default
//	                              ./...) via the go command and prints
//	                              findings sorted by position.
//	saravet -escape [packages]    runs go build -gcflags=-m and reports
//	                              compiler-verified heap escapes inside
//	                              //sara:hotpath functions.
//	go vet -vettool=$(pwd)/bin/saravet ./...
//	                              vet driver; saravet speaks the vet.cfg
//	                              unit protocol, exporting hot-path facts
//	                              through the .vetx slots so the
//	                              cross-package contract works under
//	                              go vet's per-package scheduling.
//
// Exit codes: 0 clean, 1 findings (or a tree that fails to typecheck),
// 2 usage or load errors (the tool could not analyze at all).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"

	"sara/internal/lint"
	"sara/internal/lint/load"
)

const usage = `usage: saravet [-escape] [packages]
       go vet -vettool=/path/to/saravet [packages]

Runs the sara static-analysis suite: hotpathalloc, wakebound,
determinism, saradirective. Packages default to ./... relative to the
current directory.

  -escape   cross-check //sara:hotpath functions against the compiler's
            escape analysis (go build -gcflags=-m) instead of running the
            syntactic analyzers

Exit codes: 0 clean, 1 findings, 2 usage or load errors.
`

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}

func run(args []string, dir string, stdout, stderr io.Writer) int {
	// The go vet driver protocol: -flags, -V=full, then one *.cfg per
	// package unit.
	if len(args) > 0 {
		switch {
		case args[0] == "-flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		case strings.HasPrefix(args[0], "-V="):
			fmt.Fprintf(stdout, "saravet version %s\n", version())
			return 0
		case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
			return runVetUnit(args[0], stderr)
		}
	}

	fs := flag.NewFlagSet("saravet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprint(stderr, usage) }
	escape := fs.Bool("escape", false, "run the compiler escape-analysis cross-check")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *escape {
		return runEscape(dir, fs.Args(), stdout, stderr)
	}
	return runStandalone(dir, fs.Args(), stdout, stderr)
}

func runStandalone(dir string, patterns []string, stdout, stderr io.Writer) int {
	res, err := load.Patterns(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "saravet: %v\n", err)
		return 2
	}
	analyzers := lint.All()
	var all []lint.Diagnostic
	for _, pkg := range res.Packages {
		if !pkg.Analyze {
			continue
		}
		pass := &lint.Pass{
			Fset:   res.Fset,
			Files:  pkg.Files,
			Pkg:    pkg.Types,
			Info:   pkg.Info,
			Module: res.Module,
			Facts:  res.Facts,
		}
		ds, err := lint.RunPackage(pass, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "saravet: %v\n", err)
			return 2
		}
		all = append(all, ds...)
	}
	return report(all, dir, stdout)
}

func runEscape(dir string, patterns []string, stdout, stderr io.Writer) int {
	res, err := load.Patterns(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "saravet: %v\n", err)
		return 2
	}
	if res.Module == "" {
		fmt.Fprintln(stderr, "saravet: -escape requires a module")
		return 2
	}
	ix := lint.NewEscapeIndex()
	for _, pkg := range res.Packages {
		ix.AddFiles(res.Fset, pkg.Files)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"build", fmt.Sprintf("-gcflags=%s/...=-m", res.Module), "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(stderr, "saravet: go build -gcflags=-m: %v\n%s", err, out)
		return 2
	}
	return report(ix.Check(out, dir), dir, stdout)
}

// report prints findings with positions relative to dir and returns the
// exit code.
func report(ds []lint.Diagnostic, dir string, w io.Writer) int {
	lint.SortDiagnostics(ds)
	abs, err := filepath.Abs(dir)
	for _, d := range ds {
		if err == nil {
			if rel, rerr := filepath.Rel(abs, d.Pos.Filename); rerr == nil && !strings.HasPrefix(rel, "..") {
				d.Pos.Filename = rel
			}
		}
		fmt.Fprintln(w, d.String())
	}
	if len(ds) > 0 {
		return 1
	}
	return 0
}

// vetConfig is the subset of go vet's per-package unit config saravet
// consumes.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	ModulePath                string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runVetUnit(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "saravet: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "saravet: parsing %s: %v\n", cfgPath, err)
		return 2
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(stderr, "saravet: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	// Facts are syntactic, so they are exported for every unit — even
	// VetxOnly dependency visits that never typecheck.
	facts := lint.ScanFacts(fset, files)
	if cfg.VetxOutput != "" {
		data, err := json.Marshal(&facts)
		if err == nil {
			err = os.WriteFile(cfg.VetxOutput, data, 0o666)
		}
		if err != nil {
			fmt.Fprintf(stderr, "saravet: writing facts: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	importPath := plainImportPath(cfg.ImportPath)
	if cfg.ModulePath == "" || !inModule(cfg.ModulePath, importPath) {
		return 0
	}

	imp := importer.ForCompiler(fset, compilerName(cfg.Compiler), func(path string) (io.ReadCloser, error) {
		if r, ok := cfg.ImportMap[path]; ok {
			path = r
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []string
	conf := types.Config{
		Importer: unsafeAware{imp},
		Error:    func(err error) { typeErrs = append(typeErrs, err.Error()) },
	}
	tpkg, _ := conf.Check(importPath, fset, files, info)
	if len(typeErrs) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "saravet: typecheck %s: %s\n", importPath, strings.Join(typeErrs, "\n"))
		return 1
	}

	// Sorted iteration makes the plain path win deterministically over a
	// test-variant spelling of the same package.
	vetxPaths := make([]string, 0, len(cfg.PackageVetx))
	for path := range cfg.PackageVetx {
		vetxPaths = append(vetxPaths, path)
	}
	sort.Strings(vetxPaths)
	factsMap := map[string]*lint.Facts{}
	for _, path := range vetxPaths {
		data, err := os.ReadFile(cfg.PackageVetx[path])
		if err != nil {
			continue
		}
		var f lint.Facts
		if json.Unmarshal(data, &f) != nil {
			continue
		}
		key := plainImportPath(path)
		if _, ok := factsMap[key]; !ok {
			factsMap[key] = &f
		}
	}

	pass := &lint.Pass{
		Fset:   fset,
		Files:  files,
		Pkg:    tpkg,
		Info:   info,
		Module: cfg.ModulePath,
		Facts:  factsMap,
	}
	ds, err := lint.RunPackage(pass, lint.All())
	if err != nil {
		fmt.Fprintf(stderr, "saravet: %v\n", err)
		return 2
	}
	for _, d := range ds {
		fmt.Fprintln(stderr, d.String())
	}
	if len(ds) > 0 {
		return 1
	}
	return 0
}

// unsafeAware wraps the export-data importer with the unsafe special case
// the compiler handles internally.
type unsafeAware struct {
	imp types.Importer
}

func (u unsafeAware) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return u.imp.Import(path)
}

// plainImportPath strips go vet's test-variant decorations:
// "p [p.test]" -> "p".
func plainImportPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

func compilerName(name string) string {
	if name == "" {
		return "gc"
	}
	return name
}

func inModule(module, path string) bool {
	return path == module || strings.HasPrefix(path, module+"/")
}

func version() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		v := bi.Main.Version
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				v += "-" + s.Value
			}
		}
		if v != "" {
			return v
		}
	}
	return "devel"
}
