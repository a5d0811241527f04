// Intra-procedural value flow: the fixed-point walker that propagates facts
// through locals, composite literals and helper calls inside one function
// body. A flow assigns every object (parameter, local, struct field) a
// bitmask — bit i for "derives from parameter i", plus a source bit for
// "derives from an external taint source" — under one of three domains:
//
//   - domStream: integers and byte slices derived from a compressed stream
//     (bitstream/safedec reads, encoding/binary decodes, []byte parameters
//     of Decompress-shaped functions). The taintalloc check asks whether
//     such a value reaches an allocation size unchecked.
//   - domRequest: strings derived from an *http.Request / url.Values /
//     http.Header. The metriclabel check asks whether such a string reaches
//     a metric label value.
//   - domAlias: reference aliasing — which parameters an expression may
//     share memory with. The poolreset check asks whether caller-visible
//     slices are retained by pooled objects across Put.
//
// Sanitization is flow-insensitive by design: an object that is anywhere
// bounds-checked (compared outside a for-condition, passed to a
// safedec.Limits method, switch-matched, map-membership-tested, or handed
// to a helper whose summary validates that parameter) is treated as clean
// everywhere in the function. That trades a little soundness for the
// review-friendly property that adding the conventional guard anywhere in
// the function silences the finding.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// sourceBit marks values derived from the domain's external taint source
// (a compressed stream, a request) rather than from a parameter.
const sourceBit = 63

// domain selects the fact being propagated.
type domain int

const (
	domStream domain = iota
	domRequest
	domAlias
	domCount
)

// flow is one function body analyzed under one domain.
type flow struct {
	prog *Program
	pkg  *Package
	dom  domain

	// paramIdx maps receiver/parameter objects to their summary position
	// (receiver first, when present).
	paramIdx map[types.Object]int

	mask      map[types.Object]uint64
	sanitized map[types.Object]bool

	// localSanitized marks objects whose sanitization must not export into
	// the function's Validates summary: a comma-ok map membership test
	// reads as a finite-set guard where the branch is visible, but a
	// callee's internal map lookup proves nothing to the caller (registry
	// get-or-create lookups are exactly the unbounded-cardinality path).
	localSanitized map[types.Object]bool

	// forConds holds comparison expressions that are for-loop conditions;
	// those do not sanitize (`for i < n` uses n as a bound, it does not
	// validate n).
	forConds map[ast.Expr]bool

	edges []flowEdge
}

// flowEdge is one assignment: dst receives rhs (result resultIdx when rhs
// is a multi-result call, -1 otherwise).
type flowEdge struct {
	dst       types.Object
	rhs       ast.Expr
	resultIdx int
}

// decompressName matches functions whose []byte parameters are compressed
// input by convention (the safedec threat model: these bytes arrive over
// the network).
var decompressName = regexp.MustCompile(`(?i)^(append)?(decompress|decode|parse|unmarshal|inflate)`)

// newFlow analyzes body (a FuncDecl body or any block) under dom. recv and
// params supply the positional parameter objects; fname is the function's
// name (for the Decompress-shaped []byte source convention).
func newFlow(prog *Program, pkg *Package, dom domain, fname string, paramObjs []types.Object, body *ast.BlockStmt) *flow {
	fl := &flow{
		prog:           prog,
		pkg:            pkg,
		dom:            dom,
		paramIdx:       make(map[types.Object]int),
		mask:           make(map[types.Object]uint64),
		sanitized:      make(map[types.Object]bool),
		localSanitized: make(map[types.Object]bool),
		forConds:       make(map[ast.Expr]bool),
	}
	for i, obj := range paramObjs {
		if obj == nil {
			continue
		}
		fl.paramIdx[obj] = i
		fl.mask[obj] = 1 << uint(i)
		if dom == domStream && decompressName.MatchString(fname) && isByteSlice(obj.Type()) {
			fl.mask[obj] |= 1 << sourceBit
		}
	}
	if body == nil {
		return fl
	}
	fl.collectForConds(body)
	fl.collectSanitized(body)
	fl.collectEdges(body)
	fl.solve()
	return fl
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// sanitizable reports whether an object of type t can be cleared by a
// bounds check under this domain: sizes (integers) for the stream domain,
// label strings for the request domain. Reference values ([]byte) are
// never sanitized — comparing a slice's length does not make its contents
// trusted — and the alias domain has no sanitization at all.
func (fl *flow) sanitizable(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch fl.dom {
	case domStream:
		return b.Info()&(types.IsInteger|types.IsUntyped) != 0
	case domRequest:
		return b.Info()&(types.IsString|types.IsUntyped) != 0
	}
	return false
}

func (fl *flow) collectForConds(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok && f.Cond != nil {
			fl.forConds[f.Cond] = true
		}
		return true
	})
}

// sanitizeIdentsIn marks every sanitizable identifier and field selection
// under e as checked.
func (fl *flow) sanitizeIdentsIn(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		var obj types.Object
		switch n := n.(type) {
		case *ast.Ident:
			obj = fl.pkg.Info.Uses[n]
		case *ast.SelectorExpr:
			obj = fl.pkg.Info.Uses[n.Sel]
		}
		if obj != nil && fl.sanitizable(obj.Type()) {
			fl.sanitized[obj] = true
		}
		return true
	})
}

// collectSanitized scans for the guard shapes that clear a value:
// comparisons (outside for-conditions), switch tags, safedec.Limits calls,
// comma-ok map membership tests, and calls to helpers whose summary
// validates the parameter.
func (fl *flow) collectSanitized(body *ast.BlockStmt) {
	if fl.dom == domAlias {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if fl.forConds[n] {
				return true
			}
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				fl.sanitizeIdentsIn(n.X)
				fl.sanitizeIdentsIn(n.Y)
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				fl.sanitizeIdentsIn(n.Tag)
			}
		case *ast.AssignStmt:
			// v, ok := m[k] — membership test sanitizes k (the caller
			// branches on ok before trusting the value as a label). This
			// stays local to the function: see localSanitized.
			if len(n.Lhs) == 2 && len(n.Rhs) == 1 {
				if idx, ok := n.Rhs[0].(*ast.IndexExpr); ok {
					if t := fl.pkg.Info.TypeOf(idx.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							fl.sanitizeIdentsIn(idx.Index)
							fl.markLocalSanitized(idx.Index)
						}
					}
				}
			}
		case *ast.CallExpr:
			fl.sanitizeCall(n)
		}
		return true
	})
}

// markLocalSanitized tags every sanitizable object under e as sanitized
// only for this function body, not for its exported Validates summary.
func (fl *flow) markLocalSanitized(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		var obj types.Object
		switch n := n.(type) {
		case *ast.Ident:
			obj = fl.pkg.Info.Uses[n]
		case *ast.SelectorExpr:
			obj = fl.pkg.Info.Uses[n.Sel]
		}
		if obj != nil && fl.sanitizable(obj.Type()) {
			fl.localSanitized[obj] = true
		}
		return true
	})
}

// sanitizeCall handles safedec.Limits methods and validated helper params.
func (fl *flow) sanitizeCall(call *ast.CallExpr) {
	if isLimitsCheck(fl.pkg.Info, call) {
		for _, arg := range call.Args {
			fl.sanitizeIdentsIn(arg)
		}
		return
	}
	sum, args := fl.prog.callSummary(fl.pkg, call)
	if sum == nil {
		return
	}
	validates := sum.Validates[fl.dom]
	for pos, arg := range args {
		if pos < len(validates) && validates[pos] && arg != nil {
			fl.sanitizeIdentsIn(arg)
		}
	}
}

// isLimitsCheck reports whether call is a method on safedec.Limits
// (Alloc, Count, Elements) — the canonical validate-before-allocate guard.
func isLimitsCheck(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/safedec") {
		return false
	}
	switch obj.Name() {
	case "Alloc", "Count", "Elements":
		return true
	}
	return false
}

// collectEdges records every assignment-like fact flow in the body
// (including inside closures — captured locals are shared state).
func (fl *flow) collectEdges(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			fl.assignEdges(n.Lhs, n.Rhs, n.Tok)
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					fl.assignEdges(lhs, vs.Values, token.DEFINE)
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
func (fl *flow) assignEdges(lhs, rhs []ast.Expr, tok token.Token) {
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
	_ = tok
}

// lhsObject resolves an assignment target to the object that accumulates
// the fact: plain identifiers resolve to their variable, field selectors
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

// objMask returns an object's current mask, honoring sanitization.
func (fl *flow) objMask(obj types.Object) uint64 {
	if obj == nil || fl.sanitized[obj] {
		return 0
	}
	return fl.mask[obj]
}

// exprMask computes the fact mask of an expression.
func (fl *flow) exprMask(e ast.Expr) uint64 {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return fl.objMask(fl.pkg.Info.Uses[e])
	case *ast.BasicLit:
		return 0
	case *ast.SelectorExpr:
		m := fl.objMask(fl.pkg.Info.Uses[e.Sel])
		if fl.dom == domRequest && isRequestRoot(fl.pkg.Info, e.X) {
			m |= 1 << sourceBit
		}
		// A field read off a tainted whole value (helper-returned struct)
		// inherits the value's mask.
		return m | fl.exprMask(e.X)
	case *ast.IndexExpr:
		return fl.exprMask(e.X)
	case *ast.SliceExpr:
		return fl.exprMask(e.X)
	case *ast.StarExpr:
		return fl.exprMask(e.X)
	case *ast.TypeAssertExpr:
		return fl.exprMask(e.X)
	case *ast.UnaryExpr:
		if fl.dom == domAlias || e.Op != token.ARROW {
			return fl.exprMask(e.X)
		}
		return fl.exprMask(e.X)
	case *ast.BinaryExpr:
		if fl.dom == domAlias {
			return 0 // arithmetic yields values, not aliases
		}
		return fl.exprMask(e.X) | fl.exprMask(e.Y)
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
		masks := fl.callMasks(e)
		var m uint64
		for _, r := range masks {
			m |= r
		}
		return m
	case *ast.FuncLit:
		return 0
	}
	return 0
}

// recordStructLitEdges taints the field objects named in a struct literal;
// solve() re-runs exprMask so the edges land on the next iteration.
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
		if m := fl.exprMask(kv.Value); m&^fl.mask[obj] != 0 {
			fl.mask[obj] |= m
		}
	}
}

// callMasks returns the per-result fact masks of a call expression.
func (fl *flow) callMasks(call *ast.CallExpr) []uint64 {
	info := fl.pkg.Info
	// Type conversion: T(x) carries x's mask.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return []uint64{fl.exprMask(call.Args[0])}
		}
		return nil
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return []uint64{fl.builtinMask(id.Name, call)}
		}
	}
	// Domain sources (stream reads, request accessors).
	if src := fl.sourceMask(call); src != 0 {
		return []uint64{src}
	}
	// Module-internal callee: consult its summary.
	sum, args := fl.prog.callSummary(fl.pkg, call)
	if sum == nil {
		return nil
	}
	results := sum.Results[fl.dom]
	out := make([]uint64, len(results))
	for i, rm := range results {
		if rm&(1<<sourceBit) != 0 {
			out[i] |= 1 << sourceBit
		}
		for pos, arg := range args {
			if arg != nil && rm&(1<<uint(pos)) != 0 {
				out[i] |= fl.exprMask(arg)
			}
		}
	}
	return out
}

// builtinMask models the builtins that matter: len/cap of real memory are
// trusted sizes; min clamps when any bound is clean; append carries (and,
// in the alias domain, aliases its first argument).
func (fl *flow) builtinMask(name string, call *ast.CallExpr) uint64 {
	switch name {
	case "len", "cap", "make", "new", "copy", "clear", "delete":
		return 0
	case "min":
		var m uint64
		for _, a := range call.Args {
			am := fl.exprMask(a)
			if am == 0 {
				return 0 // clamped by a clean bound
			}
			m |= am
		}
		return m
	case "append":
		if fl.dom == domAlias {
			if len(call.Args) > 0 {
				// append may return dst's backing array; the appended
				// elements are copied, never aliased.
				return fl.exprMask(call.Args[0])
			}
			return 0
		}
		var m uint64
		for _, a := range call.Args {
			m |= fl.exprMask(a)
		}
		return m
	case "max":
		var m uint64
		for _, a := range call.Args {
			m |= fl.exprMask(a)
		}
		return m
	}
	return 0
}

// sourceMask recognizes the calls that introduce domain taint.
func (fl *flow) sourceMask(call *ast.CallExpr) uint64 {
	info := fl.pkg.Info
	switch fl.dom {
	case domStream:
		if isStreamRead(info, call) {
			return 1 << sourceBit
		}
	case domRequest:
		if isRequestRead(info, call) {
			return 1 << sourceBit
		}
	}
	return 0
}

// isStreamRead matches integer/byte reads off a compressed stream:
// encoding/binary decodes, safedec.Reader reads, bitstream.Reader reads.
func isStreamRead(info *types.Info, call *ast.CallExpr) bool {
	obj := objectOf(info, call.Fun)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "encoding/binary":
		switch obj.Name() {
		case "Uvarint", "Varint", "ReadUvarint", "ReadVarint",
			"Uint16", "Uint32", "Uint64", "PutUvarint":
			return obj.Name() != "PutUvarint"
		}
		return false
	}
	path := obj.Pkg().Path()
	if strings.HasSuffix(path, "internal/safedec") {
		switch obj.Name() {
		case "U8", "U32", "U64", "BE64", "Uvarint", "Take", "Rest":
			return true
		}
		return false
	}
	if strings.HasSuffix(path, "internal/bitstream") {
		switch obj.Name() {
		case "ReadBit", "ReadBits", "ReadBool", "ReadUnary", "Peek":
			return true
		}
	}
	return false
}

// isRequestRead matches string reads off an HTTP request: methods on
// url.Values / http.Header / *url.URL and any method of *http.Request.
func isRequestRead(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return isRequestRoot(info, sel.X) || isRequestTyped(info.TypeOf(ast.Unparen(call.Fun).(*ast.SelectorExpr).X))
}

// isRequestRoot reports whether e denotes a request-derived container.
func isRequestRoot(info *types.Info, e ast.Expr) bool {
	return isRequestTyped(info.TypeOf(e))
}

// isRequestTyped matches the types whose contents are attacker-chosen
// request strings.
func isRequestTyped(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "net/http.Request", "net/http.Header", "net/url.URL", "net/url.Values":
		return true
	}
	return false
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
