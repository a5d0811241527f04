// Intra-procedural alias flow: the fixed-point walker that propagates
// reference aliasing through locals, composite literals and helper calls
// inside one function body. A flow assigns every object (parameter, local,
// struct field) a bitmask — bit i for "may share memory with parameter i" —
// so the poolreset check can ask whether a caller-visible slice or pointer
// is retained by a pooled object across Put. Aliasing is a fact about
// memory, so nothing in the body discharges it: there is no sanitization.
package analysis

import (
	"go/ast"
	"go/types"
)

// flow is one function body's alias analysis.
type flow struct {
	l     *Loader
	pkg   *Package
	mask  map[types.Object]uint64
	edges []flowEdge
}

// flowEdge is one assignment: dst receives rhs (result resultIdx when rhs
// is a multi-result call, -1 otherwise).
type flowEdge struct {
	dst       types.Object
	rhs       ast.Expr
	resultIdx int
}

// newFlow analyzes body (a FuncDecl body or any block). paramObjs supplies
// the positional parameter objects, receiver first.
func newFlow(l *Loader, pkg *Package, paramObjs []types.Object, body *ast.BlockStmt) *flow {
	fl := &flow{
		l:    l,
		pkg:  pkg,
		mask: make(map[types.Object]uint64),
	}
	for i, obj := range paramObjs {
		if obj != nil {
			fl.mask[obj] = 1 << uint(i)
		}
	}
	if body == nil {
		return fl
	}
	fl.collectEdges(body)
	fl.solve()
	return fl
}

// collectEdges records every assignment-like alias flow in the body
// (including inside closures — captured locals are shared state).
func (fl *flow) collectEdges(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			fl.assignEdges(n.Lhs, n.Rhs)
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					fl.assignEdges(lhs, vs.Values)
				}
			}
		case *ast.RangeStmt:
			for _, v := range []ast.Expr{n.Key, n.Value} {
				if v == nil {
					continue
				}
				if obj := fl.lhsObject(v); obj != nil {
					fl.edges = append(fl.edges, flowEdge{dst: obj, rhs: n.X, resultIdx: -1})
				}
			}
		}
		return true
	})
}

// assignEdges pairs assignment sides, splitting a single multi-result RHS
// across the LHS positions.
func (fl *flow) assignEdges(lhs, rhs []ast.Expr) {
	if len(lhs) > 1 && len(rhs) == 1 {
		for i, l := range lhs {
			if obj := fl.lhsObject(l); obj != nil {
				fl.edges = append(fl.edges, flowEdge{dst: obj, rhs: rhs[0], resultIdx: i})
			}
		}
		return
	}
	for i, l := range lhs {
		if i >= len(rhs) {
			break
		}
		if obj := fl.lhsObject(l); obj != nil {
			fl.edges = append(fl.edges, flowEdge{dst: obj, rhs: rhs[i], resultIdx: -1})
		}
	}
}

// lhsObject resolves an assignment target to the object that accumulates
// the mask: plain identifiers resolve to their variable, field selectors
// to the field object (field-granular: writing o.f taints f, not o), and
// index/star/paren targets to their root.
func (fl *flow) lhsObject(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil
		}
		if obj := fl.pkg.Info.Defs[e]; obj != nil {
			return obj
		}
		return fl.pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		return fl.pkg.Info.Uses[e.Sel]
	case *ast.IndexExpr:
		return fl.lhsObject(e.X)
	case *ast.StarExpr:
		return fl.lhsObject(e.X)
	}
	return nil
}

// solve runs the fixed point: every edge is re-applied until no mask grows.
func (fl *flow) solve() {
	for changed := true; changed; {
		changed = false
		for _, e := range fl.edges {
			var m uint64
			if e.resultIdx >= 0 {
				m = fl.callResultMask(e.rhs, e.resultIdx)
			} else {
				m = fl.exprMask(e.rhs)
			}
			if m&^fl.mask[e.dst] != 0 {
				fl.mask[e.dst] |= m
				changed = true
			}
		}
	}
}

// callResultMask is exprMask for one result position of a multi-result
// RHS (call, type assertion, or map index).
func (fl *flow) callResultMask(rhs ast.Expr, idx int) uint64 {
	switch rhs := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		masks := fl.callMasks(rhs)
		if idx < len(masks) {
			return masks[idx]
		}
		return 0
	case *ast.TypeAssertExpr, *ast.IndexExpr, *ast.UnaryExpr:
		// v, ok := x.(T) / m[k] / <-ch: position 0 carries the value.
		if idx == 0 {
			return fl.exprMask(rhs)
		}
		return 0
	}
	return fl.exprMask(rhs)
}

// exprMask computes the alias mask of an expression.
func (fl *flow) exprMask(e ast.Expr) uint64 {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return fl.mask[fl.pkg.Info.Uses[e]]
	case *ast.SelectorExpr:
		// A field read off an aliased whole value (helper-returned struct)
		// inherits the value's mask.
		return fl.mask[fl.pkg.Info.Uses[e.Sel]] | fl.exprMask(e.X)
	case *ast.IndexExpr:
		return fl.exprMask(e.X)
	case *ast.SliceExpr:
		return fl.exprMask(e.X)
	case *ast.StarExpr:
		return fl.exprMask(e.X)
	case *ast.TypeAssertExpr:
		return fl.exprMask(e.X)
	case *ast.UnaryExpr:
		return fl.exprMask(e.X)
	case *ast.CompositeLit:
		// Struct literals stay field-granular (the element edges are
		// recorded separately); sequence literals carry their elements.
		if t := fl.pkg.Info.TypeOf(e); t != nil {
			if _, ok := t.Underlying().(*types.Struct); ok {
				fl.recordStructLitEdges(e)
				return 0
			}
		}
		var m uint64
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			m |= fl.exprMask(el)
		}
		return m
	case *ast.CallExpr:
		var m uint64
		for _, r := range fl.callMasks(e) {
			m |= r
		}
		return m
	}
	// Literals, function literals, and arithmetic: values, not aliases.
	return 0
}

// recordStructLitEdges gives the field objects named in a struct literal
// their values' masks; solve() re-runs exprMask so the edges land on the
// next iteration.
func (fl *flow) recordStructLitEdges(lit *ast.CompositeLit) {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		obj := fl.pkg.Info.Uses[key]
		if obj == nil {
			continue
		}
		fl.mask[obj] |= fl.exprMask(kv.Value)
	}
}

// callMasks returns the per-result alias masks of a call expression.
func (fl *flow) callMasks(call *ast.CallExpr) []uint64 {
	info := fl.pkg.Info
	// Type conversion: T(x) carries x's mask.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return []uint64{fl.exprMask(call.Args[0])}
		}
		return nil
	}
	// Builtins: append may return its first argument's backing array (the
	// appended elements are copied, never aliased); the rest yield values
	// or fresh memory.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && len(call.Args) > 0 {
				return []uint64{fl.exprMask(call.Args[0])}
			}
			return []uint64{0}
		}
	}
	// Module-internal (or table-known stdlib) callee: consult its summary.
	sum, args := fl.l.callSummary(fl.pkg, call)
	if sum == nil {
		return nil
	}
	out := make([]uint64, len(sum.Results))
	for i, rm := range sum.Results {
		for pos, arg := range args {
			if arg != nil && rm&(1<<uint(pos)) != 0 {
				out[i] |= fl.exprMask(arg)
			}
		}
	}
	return out
}

// rootIdentObj walks a selector/index/star/paren chain to its base
// identifier's object (o in o.a.b[i]), or nil.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
