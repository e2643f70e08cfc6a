package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// determinismScope names the subtrees whose results must be bit-identical
// at any worker/fleet configuration: the simulator, the scenario
// expansion, the pipeline, and the cluster merge paths.
var determinismScope = []string{
	"delta/internal/sim",
	"delta/internal/scenario",
	"delta/internal/pipeline",
	"delta/internal/cluster",
}

// Determinism enforces the repo's headline contract: simulation results
// are a pure function of the scenario, so nothing on an evaluation or
// merge path may read the wall clock, draw randomness, or let Go's
// randomized map iteration order leak into an output sequence.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now/time.Since/math/rand and order-sensitive map " +
		"ranges in the deterministic-replay packages " +
		"(internal/{sim,scenario,pipeline,cluster})",
	Run: runDeterminism,
}

func runDeterminism(p *Package) []Diagnostic {
	if !underPrefixes(p.Path, determinismScope...) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				diags = append(diags, p.diag("determinism", imp,
					"import of %s: randomness in a replay package breaks bit-identical results; inject a seeded source through config instead", path))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				obj := p.Info.ObjectOf(sel.Sel)
				if isPkgObj(obj, "time", "Now", "Since") {
					diags = append(diags, p.diag("determinism", sel,
						"time.%s in a replay package: wall-clock reads make reruns diverge; take timestamps at the serving edge or inject a clock", obj.Name()))
				}
			}
			return true
		})
	}
	diags = append(diags, p.mapRangeDiags()...)
	return diags
}

// mapRangeDiags walks every statement list looking for `range` over a map
// whose body performs an order-sensitive write: appending to a slice,
// accumulating into a variable declared outside the loop, or writing
// output. The one blessed shape is the sorted-keys idiom — append exactly
// the key variable, then sort the slice in a following statement.
func (p *Package) mapRangeDiags() []Diagnostic {
	var diags []Diagnostic
	p.eachFunc(func(fd *ast.FuncDecl) {
		p.walkStmtLists(fd.Body.List, func(list []ast.Stmt, i int) {
			rs, ok := list[i].(*ast.RangeStmt)
			if !ok || !p.isMapType(rs.X) {
				return
			}
			if d, flagged := p.checkMapRange(rs, list[i+1:]); flagged {
				diags = append(diags, d)
			}
		})
	})
	return diags
}

// walkStmtLists visits every statement list in the tree (function bodies,
// blocks, if/else arms, loop bodies, case clauses), calling visit for each
// (list, index) pair before recursing.
func (p *Package) walkStmtLists(list []ast.Stmt, visit func(list []ast.Stmt, i int)) {
	for i, s := range list {
		visit(list, i)
		switch s := s.(type) {
		case *ast.BlockStmt:
			p.walkStmtLists(s.List, visit)
		case *ast.IfStmt:
			p.walkStmtLists(s.Body.List, visit)
			switch el := s.Else.(type) {
			case *ast.BlockStmt:
				p.walkStmtLists(el.List, visit)
			case *ast.IfStmt:
				p.walkStmtLists([]ast.Stmt{el}, visit)
			}
		case *ast.ForStmt:
			p.walkStmtLists(s.Body.List, visit)
		case *ast.RangeStmt:
			p.walkStmtLists(s.Body.List, visit)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					p.walkStmtLists(cc.Body, visit)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					p.walkStmtLists(cc.Body, visit)
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					p.walkStmtLists(cc.Body, visit)
				}
			}
		case *ast.LabeledStmt:
			p.walkStmtLists([]ast.Stmt{s.Stmt}, visit)
		}
	}
}

// checkMapRange classifies one map-range statement. tail is the statement
// list following the range in its enclosing block (where the sorting half
// of the sorted-keys idiom must live).
func (p *Package) checkMapRange(rs *ast.RangeStmt, tail []ast.Stmt) (Diagnostic, bool) {
	keyObj := types.Object(nil)
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		keyObj = p.Info.ObjectOf(id)
	}

	var offense string // first order-sensitive write found, as prose
	var offenseAt ast.Node
	keyOnlyAppends := true           // every write is `append(s, key)`
	var appendTargets []types.Object // slices appended to

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // deferred/spawned bodies run outside the loop
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltinAppend(p, n) {
				if offense == "" {
					offense, offenseAt = "an append", n
				}
				if len(n.Args) == 2 && keyObj != nil {
					if arg, ok := ast.Unparen(n.Args[1]).(*ast.Ident); ok && p.Info.ObjectOf(arg) == keyObj {
						if t := appendTarget(p, n); t != nil {
							appendTargets = append(appendTargets, t)
							return true
						}
					}
				}
				keyOnlyAppends = false
				return true
			}
			if p.isOutputCall(n) {
				if offense == "" {
					offense, offenseAt = "an output write", n
				}
				keyOnlyAppends = false
			}
		case *ast.AssignStmt:
			if n.Tok.IsOperator() && n.Tok.String() != "=" && n.Tok.String() != ":=" {
				if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok && !p.declaredWithin(id, rs, rs) {
					if offense == "" {
						offense, offenseAt = "accumulation into "+id.Name, n
					}
					keyOnlyAppends = false
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && !p.declaredWithin(id, rs, rs) {
				if offense == "" {
					offense, offenseAt = "accumulation into "+id.Name, n
				}
				keyOnlyAppends = false
			}
		}
		return true
	})

	if offense == "" {
		return Diagnostic{}, false
	}
	if keyOnlyAppends && len(appendTargets) > 0 && p.tailSorts(tail, appendTargets) {
		return Diagnostic{}, false // the sorted-keys idiom: collect, then sort
	}
	return p.diag("determinism", offenseAt,
		"map iteration order feeds %s: map ranges are randomized per run; collect the keys, sort them, then index (sorted-keys idiom)", offense), true
}

// isBuiltinAppend resolves whether a call is the append builtin (the
// identifier resolves to the universe-scope builtin, or — with partial
// type info — is literally named append with no local shadow).
func isBuiltinAppend(p *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	obj := p.Info.ObjectOf(id)
	_, isBuiltin := obj.(*types.Builtin)
	return obj == nil || isBuiltin
}

// appendTarget returns the object the append result is assigned to when
// the call is the canonical `s = append(s, ...)` shape.
func appendTarget(p *Package, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		return p.Info.ObjectOf(id)
	}
	return nil
}

// isOutputCall matches writes whose order is the output order: fmt
// printing to a writer, io.WriteString, and writer-shaped methods.
func (p *Package) isOutputCall(call *ast.CallExpr) bool {
	obj := p.callee(call)
	if isPkgObj(obj, "fmt", "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println") {
		return true
	}
	if isPkgObj(obj, "io", "WriteString", "Copy") {
		return true
	}
	switch selectionMethodName(call) {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		// Only writer methods, not e.g. a map write helper: require the
		// receiver to be a named type with a Write-family method from a
		// real package (best-effort; partial type info stays quiet).
		sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if sel != nil {
			if s, ok := p.Info.Selections[sel]; ok && s.Obj() != nil {
				return true
			}
		}
	}
	return false
}

// tailSorts reports whether a statement in tail sorts one of the given
// slices (sort.* or slices.Sort* mentioning the object).
func (p *Package) tailSorts(tail []ast.Stmt, targets []types.Object) bool {
	for _, s := range tail {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return true
			}
			obj := p.callee(call)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if pkg := obj.Pkg().Path(); pkg != "sort" && pkg != "slices" {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(an ast.Node) bool {
					if id, ok := an.(*ast.Ident); ok {
						for _, t := range targets {
							if p.Info.ObjectOf(id) == t {
								found = true
							}
						}
					}
					return true
				})
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
