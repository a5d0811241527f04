// Interprocedural layer: a module-wide view over the loader's package
// cache. Program indexes every function declaration the loader has
// type-checked, exposes a static call graph, and computes memoized
// per-function summaries so facts flow through helper calls:
//
//   - Validates: which parameters the function bounds-checks (comparison,
//     safedec.Limits, or delegation to a validating helper). A caller
//     passing a stream-derived size to such a helper has discharged the
//     taintalloc obligation.
//   - Results: per-domain masks describing which parameters (and which
//     taint sources) each result derives from, so taint survives return
//     values of helpers.
//   - AllocsUnchecked: parameters that reach an allocation size inside the
//     function with no check — the call site inherits the finding.
//   - Resets / Clears / Stores: the pooled-scratch discipline facts the
//     poolreset check composes across helper methods.
//   - Labels: parameters that flow into an obs metric label value.
//   - SpawnsPerCall: the function launches an unjoined goroutine per call,
//     so calling it from an unbounded loop is goroutine fan-out (gopool).
//
// Summaries are computed on demand from each function's AST and memoized
// by *types.Func; recursion is cut with a neutral summary. Standard-library
// functions have no AST here — a small table below carries the few facts
// that matter (bytes.Reader.Reset retains its argument, etc.); everything
// else defaults to the neutral summary.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Program is the interprocedural view over one Loader's packages.
type Program struct {
	loader  *Loader
	decls   map[*types.Func]declSite
	indexed map[string]bool
	sums    map[*types.Func]*Summary
	busy    map[*types.Func]bool
}

type declSite struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// Program returns the loader's interprocedural view, creating it on first
// use. All packages the loader type-checks share one Program, so summaries
// are computed once per function no matter how many packages are analyzed.
func (l *Loader) Program() *Program {
	if l.prog == nil {
		l.prog = &Program{
			loader:  l,
			decls:   make(map[*types.Func]declSite),
			indexed: make(map[string]bool),
			sums:    make(map[*types.Func]*Summary),
			busy:    make(map[*types.Func]bool),
		}
	}
	return l.prog
}

// Summary is the interprocedural fact sheet of one function. Positions
// count the receiver first (index 0) when the function is a method.
type Summary struct {
	// Arity is the positional parameter count (receiver included).
	Arity int
	// Validates[d][i] reports that parameter i is checked inside under
	// domain d: bounds-compared for stream sizes, pinned to a finite set
	// (switch, equality, map membership) for request strings.
	Validates [domCount][]bool
	// AllocsUnchecked[i] reports that parameter i reaches an allocation
	// size with no check.
	AllocsUnchecked []bool
	// Labels[i] reports that parameter i flows into a metric label value.
	Labels []bool
	// Resets[i] reports that the function re-initializes parameter i
	// (field writes, a Reset-named call, or delegation).
	Resets []bool
	// Clears[i] reports that the function nils parameter i's reference
	// fields before returning it to a pool.
	Clears []bool
	// Stores lists (dst, src) pairs: after the call, parameter dst may
	// retain an alias of parameter src. Pairs whose dst is also cleared
	// inside the function are dropped — the function manages its own
	// retention.
	Stores [][2]int
	// Results[d][r] is the domain-d mask of result r: which parameters it
	// derives from, plus sourceBit when it derives from domain taint.
	Results [domCount][]uint64
	// SpawnsPerCall reports that the function launches a goroutine per
	// call with no internal join or channel coordination.
	SpawnsPerCall bool
	// Calls lists the module-internal functions this function statically
	// calls (the call-graph edges out of it).
	Calls []*types.Func
}

// neutralSummary is the safe default for unknown or recursive functions.
func neutralSummary(arity int) *Summary {
	sum := &Summary{
		Arity:           arity,
		AllocsUnchecked: make([]bool, arity),
		Labels:          make([]bool, arity),
		Resets:          make([]bool, arity),
		Clears:          make([]bool, arity),
	}
	for d := domain(0); d < domCount; d++ {
		sum.Validates[d] = make([]bool, arity)
	}
	return sum
}

// indexPackage maps every FuncDecl in pkg to its *types.Func.
func (p *Program) indexPackage(pkg *Package) {
	if p.indexed[pkg.ImportPath] {
		return
	}
	p.indexed[pkg.ImportPath] = true
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				p.decls[fn] = declSite{pkg: pkg, decl: fd}
			}
		}
	}
}

// DeclOf returns the package and declaration of a module-internal
// function, or nils for anything without loaded syntax (stdlib, interface
// methods).
func (p *Program) DeclOf(fn *types.Func) (*Package, *ast.FuncDecl) {
	if fn == nil || fn.Pkg() == nil {
		return nil, nil
	}
	if site, ok := p.decls[fn]; ok {
		return site.pkg, site.decl
	}
	pkg, ok := p.loader.pkgs[fn.Pkg().Path()]
	if !ok {
		return nil, nil
	}
	p.indexPackage(pkg)
	if site, ok := p.decls[fn]; ok {
		return site.pkg, site.decl
	}
	return nil, nil
}

// arityOf counts positional parameters, receiver first.
func arityOf(sig *types.Signature) int {
	n := sig.Params().Len()
	if sig.Recv() != nil {
		n++
	}
	return n
}

// paramObjects lists the positional parameter objects of a declaration
// (receiver first; nil for unnamed/blank positions).
func paramObjects(pkg *Package, decl *ast.FuncDecl) []types.Object {
	var objs []types.Object
	add := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			if len(f.Names) == 0 {
				objs = append(objs, nil)
				continue
			}
			for _, name := range f.Names {
				if name.Name == "_" {
					objs = append(objs, nil)
					continue
				}
				objs = append(objs, pkg.Info.Defs[name])
			}
		}
	}
	add(decl.Recv)
	add(decl.Type.Params)
	return objs
}

// Summary computes (or returns the memoized) fact sheet for fn.
func (p *Program) Summary(fn *types.Func) *Summary {
	if sum, ok := p.sums[fn]; ok {
		return sum
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return neutralSummary(0)
	}
	arity := arityOf(sig)
	if p.busy[fn] {
		return neutralSummary(arity) // recursion: neutral fixed point
	}
	if sum := stdlibSummary(fn, arity); sum != nil {
		p.sums[fn] = sum
		return sum
	}
	pkg, decl := p.DeclOf(fn)
	if pkg == nil || decl == nil || decl.Body == nil {
		sum := neutralSummary(arity)
		p.sums[fn] = sum
		return sum
	}
	p.busy[fn] = true
	sum := p.computeSummary(pkg, decl, fn, arity)
	delete(p.busy, fn)
	p.sums[fn] = sum
	return sum
}

// stdlibSummary hardcodes the few standard-library facts the checks need:
// reader Resets retain their argument slice (pool retention), and a nil
// re-Reset clears it.
func stdlibSummary(fn *types.Func, arity int) *Summary {
	if fn.Pkg() == nil {
		return nil
	}
	key := fn.Pkg().Path() + "." + fn.Name()
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recv = named.Obj().Name()
		}
	}
	switch {
	case key == "bytes.Reset" && recv == "Reader",
		key == "strings.Reset" && recv == "Reader":
		sum := neutralSummary(arity)
		sum.Stores = [][2]int{{0, 1}}
		sum.Resets[0] = true
		return sum
	case key == "bytes.NewReader", key == "strings.NewReader", key == "bytes.NewBuffer":
		sum := neutralSummary(arity)
		sum.Results[domAlias] = []uint64{1 << 0}
		return sum
	}
	return nil
}

// computeSummary runs the per-domain flows over decl's body and distills
// the Summary facts.
func (p *Program) computeSummary(pkg *Package, decl *ast.FuncDecl, fn *types.Func, arity int) *Summary {
	sum := neutralSummary(arity)
	objs := paramObjects(pkg, decl)
	body := decl.Body
	name := decl.Name.Name

	flows := [domCount]*flow{}
	for d := domain(0); d < domCount; d++ {
		flows[d] = newFlow(p, pkg, d, name, objs, body)
	}
	// Validates: each domain's sanitizer pass marked its checked params.
	// Locally-scoped sanitization (comma-ok map lookups) does not export:
	// a callee's internal registry lookup proves nothing to the caller.
	for d := domain(0); d < domCount; d++ {
		for i, obj := range objs {
			if obj != nil && flows[d].sanitized[obj] && !flows[d].localSanitized[obj] {
				sum.Validates[d][i] = true
			}
		}
	}

	// Results: per-domain masks of every return position.
	results := fn.Type().(*types.Signature).Results().Len()
	named := namedResultObjects(pkg, decl)
	for d := domain(0); d < domCount; d++ {
		masks := make([]uint64, results)
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // a closure's returns are not fn's returns
			case *ast.ReturnStmt:
				if len(n.Results) == 0 {
					for i, obj := range named {
						if i < results && obj != nil {
							masks[i] |= flows[d].objMask(obj)
						}
					}
					return true
				}
				if len(n.Results) == results {
					for i, r := range n.Results {
						masks[i] |= flows[d].exprMask(r)
					}
				} else if len(n.Results) == 1 {
					for i := 0; i < results; i++ {
						masks[i] |= flows[d].callResultMask(n.Results[0], i)
					}
				}
			}
			return true
		})
		sum.Results[d] = masks
	}

	// Allocation sinks: parameters reaching a make/Grow size unchecked.
	for _, sink := range allocSinks(flows[domStream], body) {
		for i := 0; i < arity && i < 62; i++ {
			if sink.mask&(1<<uint(i)) != 0 {
				sum.AllocsUnchecked[i] = true
			}
		}
	}

	// Metric labels: parameters flowing into obs label values.
	for _, site := range labelSinks(flows[domRequest], body) {
		for i := 0; i < arity && i < 62; i++ {
			if site.mask&(1<<uint(i)) != 0 {
				sum.Labels[i] = true
			}
		}
	}

	// Pool discipline events, keyed by parameter object.
	byParam := make(map[types.Object]int, len(objs))
	for i, obj := range objs {
		if obj != nil {
			byParam[obj] = i
		}
	}
	var stored [62]bool
	for _, ev := range writeEvents(p, pkg, flows[domAlias], body) {
		i, ok := byParam[ev.root]
		if !ok || i >= 62 {
			continue
		}
		switch ev.kind {
		case evReset:
			sum.Resets[i] = true
		case evClear:
			sum.Clears[i] = true
		case evStore:
			stored[i] = true
			for j := 0; j < arity && j < 62; j++ {
				if ev.srcMask&(1<<uint(j)) != 0 {
					sum.Stores = append(sum.Stores, [2]int{i, j})
				}
			}
		}
	}
	// A function that both stores into and clears a parameter manages its
	// own retention (the zpool AppendDeflate pattern).
	if len(sum.Stores) > 0 {
		kept := sum.Stores[:0]
		for _, pair := range sum.Stores {
			if !sum.Clears[pair[0]] {
				kept = append(kept, pair)
			}
		}
		sum.Stores = kept
	}

	sum.SpawnsPerCall = spawnsPerCall(p, pkg, body)
	sum.Calls = p.staticCallees(pkg, body)
	return sum
}

// namedResultObjects returns the objects of named results (nil entries for
// unnamed positions).
func namedResultObjects(pkg *Package, decl *ast.FuncDecl) []types.Object {
	var objs []types.Object
	if decl.Type.Results == nil {
		return objs
	}
	for _, f := range decl.Type.Results.List {
		if len(f.Names) == 0 {
			objs = append(objs, nil)
			continue
		}
		for _, name := range f.Names {
			objs = append(objs, pkg.Info.Defs[name])
		}
	}
	return objs
}

// staticCallees collects the module-internal functions called in body.
func (p *Program) staticCallees(pkg *Package, body *ast.BlockStmt) []*types.Func {
	seen := make(map[*types.Func]bool)
	var out []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := objectOf(pkg.Info, call.Fun).(*types.Func)
		if !ok || fn.Pkg() == nil || seen[fn] {
			return true
		}
		if _, decl := p.DeclOf(fn); decl != nil {
			seen[fn] = true
			out = append(out, fn)
		}
		return true
	})
	return out
}

// callSummary resolves a call to a summarized function plus its positional
// argument expressions (receiver first for methods; nil for positions the
// call does not supply). Returns nil for calls with no useful summary.
func (p *Program) callSummary(pkg *Package, call *ast.CallExpr) (*Summary, []ast.Expr) {
	fn, ok := objectOf(pkg.Info, call.Fun).(*types.Func)
	if !ok {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, nil
	}
	sum := p.Summary(fn)
	args := make([]ast.Expr, sum.Arity)
	pos := 0
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			args[0] = sel.X
		}
		pos = 1
	}
	nParams := sig.Params().Len()
	for i, arg := range call.Args {
		at := pos + i
		if i >= nParams { // extra variadic args fold onto the last param
			at = pos + nParams - 1
		}
		if at >= 0 && at < len(args) {
			if args[at] == nil {
				args[at] = arg
			}
		}
	}
	return sum, args
}

// allocSink is one allocation sized by a checked or unchecked mask.
type allocSink struct {
	call *ast.CallExpr
	arg  ast.Expr
	mask uint64
}

// allocSinks finds every allocation whose size carries a fact mask:
// make(T, n[, c]), bytes.Buffer/strings.Builder Grow, slices.Grow.
func allocSinks(fl *flow, body *ast.BlockStmt) []allocSink {
	var out []allocSink
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := fl.pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				for _, sz := range call.Args[1:] {
					if m := fl.exprMask(sz); m != 0 {
						out = append(out, allocSink{call: call, arg: sz, mask: m})
					}
				}
				return true
			}
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && len(call.Args) > 0 {
			if sel.Sel.Name == "Grow" {
				if recv := fl.pkg.Info.TypeOf(sel.X); recv != nil && isMemoryWriterType(recv) {
					if m := fl.exprMask(call.Args[0]); m != 0 {
						out = append(out, allocSink{call: call, arg: call.Args[0], mask: m})
					}
				}
			}
			if isPkgFunc(fl.pkg.Info, call.Fun, "slices", "Grow") && len(call.Args) == 2 {
				if m := fl.exprMask(call.Args[1]); m != 0 {
					out = append(out, allocSink{call: call, arg: call.Args[1], mask: m})
				}
			}
		}
		return true
	})
	return out
}

// labelSink is one obs metric label value carrying a fact mask.
type labelSink struct {
	call *ast.CallExpr
	arg  ast.Expr
	mask uint64
}

// labelSinks finds obs.Label value arguments (and registry metric names)
// that carry request-domain taint or parameter masks.
func labelSinks(fl *flow, body *ast.BlockStmt) []labelSink {
	var out []labelSink
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := objectOf(fl.pkg.Info, call.Fun)
		if obj == nil || obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/obs") {
			return true
		}
		switch obj.Name() {
		case "Label":
			// Label(name, k1, v1, k2, v2, ...): values at odd kv offsets.
			for i := 2; i < len(call.Args); i += 2 {
				if m := fl.exprMask(call.Args[i]); m != 0 {
					out = append(out, labelSink{call: call, arg: call.Args[i], mask: m})
				}
			}
		case "Counter", "Gauge", "Histogram":
			if len(call.Args) > 0 {
				if m := fl.exprMask(call.Args[0]); m != 0 {
					out = append(out, labelSink{call: call, arg: call.Args[0], mask: m})
				}
			}
		}
		return true
	})
	return out
}

// writeEvent records one pool-discipline-relevant operation on a root
// object: a re-initializing write (evReset), a nil-out of a reference
// field (evClear), or a write that may retain an alias (evStore, with the
// alias-domain mask of the stored expression).
type writeEvent struct {
	root    types.Object
	kind    writeKind
	srcMask uint64
	pos     ast.Node
}

type writeKind int

const (
	evReset writeKind = iota
	evClear
	evStore
)

// resetName matches method names that re-initialize their receiver.
func resetName(name string) bool {
	lower := strings.ToLower(name)
	return strings.Contains(lower, "reset") || lower == "clean" || lower == "init" || lower == "release"
}

// writeEvents scans body for the operations the poolreset discipline is
// built from. aliasFl is the body's alias-domain flow, used to decide
// whether a stored expression may retain caller-visible memory.
func writeEvents(p *Program, pkg *Package, aliasFl *flow, body *ast.BlockStmt) []writeEvent {
	var out []writeEvent
	add := func(root types.Object, kind writeKind, srcMask uint64, pos ast.Node) {
		if root != nil {
			out = append(out, writeEvent{root: root, kind: kind, srcMask: srcMask, pos: pos})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				root, isField := fieldWriteRoot(pkg.Info, lhs)
				if root == nil || !isField {
					continue
				}
				rhs := n.Rhs[i]
				add(root, evReset, 0, n)
				if isNilish(pkg.Info, rhs) && isRefType(pkg.Info.TypeOf(lhs)) {
					add(root, evClear, 0, n)
				} else if m := storeMask(aliasFl, rhs); m != 0 {
					add(root, evStore, m, n)
				}
			}
		case *ast.CallExpr:
			out = append(out, callEvents(p, pkg, aliasFl, n)...)
			return true
		}
		return true
	})
	return out
}

// callEvents derives write events from a call: Reset-named methods on the
// root, and delegation to helpers whose summaries reset/clear/store their
// parameters.
func callEvents(p *Program, pkg *Package, aliasFl *flow, call *ast.CallExpr) []writeEvent {
	var out []writeEvent
	sum, args := p.callSummary(pkg, call)
	if sum == nil {
		// Unsummarized callee: still honor the Reset-naming convention on
		// the receiver chain.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && resetName(sel.Sel.Name) {
			if root := rootIdentObj(pkg.Info, sel.X); root != nil {
				out = append(out, writeEvent{root: root, kind: evReset, pos: call})
			}
		}
		return out
	}
	roots := make([]types.Object, len(args))
	for i, arg := range args {
		if arg != nil {
			roots[i] = rootIdentObj(pkg.Info, arg)
		}
	}
	name := ""
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		name = sel.Sel.Name
	} else if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		name = id.Name
	}
	for i, root := range roots {
		if root == nil {
			continue
		}
		if (i < len(sum.Resets) && sum.Resets[i]) || (i == 0 && resetName(name)) {
			out = append(out, writeEvent{root: root, kind: evReset, pos: call})
		}
		if i < len(sum.Clears) && sum.Clears[i] {
			out = append(out, writeEvent{root: root, kind: evClear, pos: call})
		}
	}
	for _, pair := range sum.Stores {
		dst, src := pair[0], pair[1]
		if dst >= len(roots) || roots[dst] == nil || src >= len(args) || args[src] == nil {
			continue
		}
		if isNilish(pkg.Info, args[src]) {
			// Re-running the storing call with nil releases the retained
			// memory: bytes.Reader.Reset(nil) and friends.
			out = append(out, writeEvent{root: roots[dst], kind: evClear, pos: call})
			continue
		}
		if m := storeMask(aliasFl, args[src]); m != 0 {
			out = append(out, writeEvent{root: roots[dst], kind: evStore, srcMask: m, pos: call})
		}
	}
	return out
}

// storeMask is the alias mask of an expression being stored into a pooled
// object: reference-typed values carry their alias mask; struct values
// carry the union of their reference components (a whole-struct write like
// `*r = Reader{buf: buf}` retains buf); scalars retain nothing.
func storeMask(fl *flow, e ast.Expr) uint64 {
	if lit, ok := ast.Unparen(e).(*ast.CompositeLit); ok {
		var m uint64
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			m |= storeMask(fl, el)
		}
		return m
	}
	t := fl.pkg.Info.TypeOf(e)
	if t == nil {
		return 0
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Interface:
		return fl.exprMask(e)
	case *types.Struct:
		// A copied struct value may still carry reference fields; treat its
		// alias mask as retained.
		return fl.exprMask(e)
	}
	return 0
}

// isRefType reports whether t is a reference type whose nil-out releases
// retained memory.
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// fieldWriteRoot resolves an assignment target to (root object, true) when
// it writes through a field/element/star of the root (o.f = x, o.a.b = x,
// *o = x), or (obj, false) for a plain identifier target.
func fieldWriteRoot(info *types.Info, lhs ast.Expr) (types.Object, bool) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj, false
		}
		return info.Defs[e], false
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return rootIdentObj(info, lhs), true
	}
	return nil, false
}

// isNilish reports whether e is nil, an empty composite literal, or a
// zero-value conversion — the shapes that release a reference.
func isNilish(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	}
	return false
}

// spawnsPerCall reports whether body launches a goroutine that outlives
// the call with no visible coordination: a go statement, no channel
// operations anywhere (the semaphore/futures pattern), and no
// sync.WaitGroup.Wait (the join pattern).
func spawnsPerCall(p *Program, pkg *Package, body *ast.BlockStmt) bool {
	hasGo := false
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			hasGo = true
		case *ast.SendStmt:
			joined = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				joined = true
			}
		case *ast.SelectStmt:
			joined = true
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				joined = true
			}
			if fn, ok := objectOf(pkg.Info, n.Fun).(*types.Func); ok {
				if _, decl := p.DeclOf(fn); decl != nil && p.Summary(fn).SpawnsPerCall {
					hasGo = true
				}
			}
		}
		return true
	})
	return hasGo && !joined
}
