package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WakeBound rejects the PR 7 wake-bug class statically. The sim.Idler
// soundness rule requires NextActivity answers to be absolute: a
// component whose lazy integration lags `now` must anchor its bound at
// its cursor (cursor + steps - 1, clamped up to now), never return
// `now + f(cursor)` — the due-wake probe RAISES cached wakes from these
// answers, so a now-relative bound computed from a stale cursor parks the
// component past its true wake and the active-ticker list never recovers.
//
// The analyzer applies intra-procedural taint inside every NextActivity
// and Wake method: receiver state (any field read, any receiver method
// result) is tainted, taint propagates through assignments in source
// order, and any `now + tainted` addition — with `now` the method's Cycle
// parameter or a local derived from it — is flagged. Constant offsets
// (now + 1) stay legal. A sound-by-other-means bound carries a
// //sara:bound-ok justification.
func WakeBound() *Analyzer {
	return &Analyzer{
		Name: "wakebound",
		Doc:  "flag now-relative wake bounds derived from mutable receiver state in NextActivity/Wake",
		Run:  runWakeBound,
	}
}

func runWakeBound(p *Pass) error {
	for _, f := range p.SourceFiles() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			if fd.Name.Name != "NextActivity" && fd.Name.Name != "Wake" {
				continue
			}
			p.checkWakeBounds(fd)
		}
	}
	return nil
}

func (p *Pass) checkWakeBounds(fd *ast.FuncDecl) {
	recv := p.receiverObj(fd)
	now := p.cycleParamObj(fd)
	if now == nil {
		return
	}

	// tainted holds locals transitively derived from receiver state;
	// nowish holds locals derived from the now parameter.
	tainted := map[types.Object]bool{}
	nowish := map[types.Object]bool{now: true}

	usesAny := func(e ast.Expr, set map[types.Object]bool, also types.Object) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return !found
			}
			obj := p.Info.Uses[id]
			if obj == nil {
				return true
			}
			if set[obj] || (also != nil && obj == also) {
				found = true
			}
			return !found
		})
		return found
	}
	taintedExpr := func(e ast.Expr) bool { return usesAny(e, tainted, recv) }
	nowExpr := func(e ast.Expr) bool { return usesAny(e, nowish, nil) }

	flag := func(pos token.Pos) {
		p.Reportf(pos, VerbBoundOK,
			"now-relative wake bound derived from receiver state in %s.%s: anchor the bound at the cursor in absolute time (sim.Idler soundness rule) or justify with //sara:bound-ok",
			recvTypeName(fd), fd.Name.Name)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Propagate taint before judging: x := now is nowish,
			// x := s.cursor is tainted, x := now + s.cursor flags below.
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					id, ok := n.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					obj := p.Info.Defs[id]
					if obj == nil {
						obj = p.Info.Uses[id]
					}
					if obj == nil {
						continue
					}
					if taintedExpr(rhs) {
						tainted[obj] = true
					}
					if nowExpr(rhs) {
						nowish[obj] = true
					}
				}
			}
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 &&
				nowExpr(n.Lhs[0]) && taintedExpr(n.Rhs[0]) {
				flag(n.TokPos)
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD {
				return true
			}
			if (nowExpr(n.X) && taintedExpr(n.Y)) || (nowExpr(n.Y) && taintedExpr(n.X)) {
				flag(n.OpPos)
			}
		}
		return true
	})
}

func (p *Pass) receiverObj(fd *ast.FuncDecl) types.Object {
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return p.Info.Defs[fd.Recv.List[0].Names[0]]
}

// cycleParamObj finds the method's simulated-time parameter: the first
// parameter whose (possibly aliased) named type is called Cycle.
func (p *Pass) cycleParamObj(fd *ast.FuncDecl) types.Object {
	for _, field := range fd.Type.Params.List {
		t := p.TypeOf(field.Type)
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Name() != "Cycle" {
			continue
		}
		if len(field.Names) == 0 {
			return nil
		}
		return p.Info.Defs[field.Names[0]]
	}
	return nil
}

func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
