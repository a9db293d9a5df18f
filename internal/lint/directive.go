package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //sara: directive vocabulary. Every suppression verb requires a
// justification — the directive analyzer rejects a bare one — so each
// escape hatch doubles as its own audit trail.
//
//	//sara:hotpath              on a function declaration's doc comment:
//	                            the function (and everything it calls
//	                            inside the module) is under the
//	                            allocation-free hot-path contract.
//	//sara:alloc-ok <reason>    suppress a hotpathalloc finding on this line.
//	//sara:bound-ok <reason>    suppress a wakebound finding on this line.
//	//sara:maprange-ok <reason> suppress a determinism map-iteration finding.
//	//sara:wallclock <reason>   allow a time.Now on this line (watchdog
//	                            deadlines are about the host, not the
//	                            simulated clock).
//
// A directive suppresses findings on its own line and, when it stands on
// a line of its own, on the line directly below it.
const (
	VerbHotpath    = "hotpath"
	VerbAllocOK    = "alloc-ok"
	VerbBoundOK    = "bound-ok"
	VerbMaprangeOK = "maprange-ok"
	VerbWallclock  = "wallclock"
)

// directivePrefix is what marks a comment as part of the vocabulary.
const directivePrefix = "//sara:"

// reasonRequired reports whether verb must carry a justification.
func reasonRequired(verb string) bool { return verb != VerbHotpath }

func knownVerb(verb string) bool {
	switch verb {
	case VerbHotpath, VerbAllocOK, VerbBoundOK, VerbMaprangeOK, VerbWallclock:
		return true
	}
	return false
}

// directive is one parsed //sara: comment.
type directive struct {
	verb   string
	reason string
	pos    token.Pos
}

// parseDirective splits one comment's text, returning ok=false for
// comments outside the vocabulary.
func parseDirective(c *ast.Comment) (directive, bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return directive{}, false
	}
	rest := c.Text[len(directivePrefix):]
	verb, reason, _ := strings.Cut(rest, " ")
	return directive{verb: verb, reason: strings.TrimSpace(reason), pos: c.Pos()}, true
}

// hasDirective reports whether the doc comment group carries verb.
func hasDirective(doc *ast.CommentGroup, verb string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if d, ok := parseDirective(c); ok && d.verb == verb {
			return true
		}
	}
	return false
}

// directiveIndex resolves suppression lookups: for each file, the set of
// verbs present on each line.
type directiveIndex struct {
	// byFile maps filename -> line -> verbs on that line.
	byFile map[string]map[int][]string
	// all retains every parsed directive for the directive analyzer.
	all []directive
}

func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{byFile: map[string]map[int][]string{}}
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				idx.all = append(idx.all, d)
				p := fset.Position(c.Pos())
				lines := idx.byFile[p.Filename]
				if lines == nil {
					lines = map[int][]string{}
					idx.byFile[p.Filename] = lines
				}
				lines[p.Line] = append(lines[p.Line], d.verb)
			}
		}
	}
	return idx
}

// suppressed reports whether a finding at pos is covered by a verb
// directive on the same line or the line directly above.
func (idx *directiveIndex) suppressed(pos token.Position, verb string) bool {
	lines := idx.byFile[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, v := range lines[l] {
			if v == verb {
				return true
			}
		}
	}
	return false
}

// Directive validates the //sara: vocabulary itself: unknown verbs,
// suppressions without a justification, and //sara:hotpath comments that
// are not the doc comment of a function declaration (a hotpath mark that
// annotates nothing silently enforces nothing).
func Directive() *Analyzer {
	return &Analyzer{
		Name: "saradirective",
		Doc:  "validate //sara: directive spelling, placement and required justifications",
		Run:  runDirective,
	}
}

func runDirective(p *Pass) error {
	for _, f := range p.SourceFiles() {
		// The doc-comment groups of function declarations, where
		// //sara:hotpath is legal.
		funcDocs := map[*ast.CommentGroup]bool{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcDocs[fd.Doc] = true
			}
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				switch {
				case !knownVerb(d.verb):
					p.Reportf(c.Pos(), "",
						"unknown //sara: directive %q (known: hotpath, alloc-ok, bound-ok, maprange-ok, wallclock)", d.verb)
				case reasonRequired(d.verb) && d.reason == "":
					p.Reportf(c.Pos(), "",
						"//sara:%s requires a justification: //sara:%s <reason>", d.verb, d.verb)
				case d.verb == VerbHotpath && d.reason != "":
					p.Reportf(c.Pos(), "",
						"//sara:hotpath takes no argument (found %q)", d.reason)
				case d.verb == VerbHotpath && !funcDocs[g]:
					p.Reportf(c.Pos(), "",
						"misplaced //sara:hotpath: must be in the doc comment of a function declaration")
				}
			}
		}
	}
	return nil
}
