// Interprocedural layer: over the loader's package cache (every function
// declaration it type-checked is indexed), memoized per-function summaries
// carry the pooled-scratch and goroutine facts through helper calls:
//
//   - Results: which parameters each result may alias, so aliasing
//     survives the return values of helpers.
//   - Resets / Clears / Stores: the pooled-scratch discipline facts the
//     poolreset check composes across helper methods.
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

// Summary is the interprocedural fact sheet of one function. Positions
// count the receiver first (index 0) when the function is a method.
type Summary struct {
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
	// Results[r] is the alias mask of result r: which parameters it may
	// share memory with.
	Results []uint64
	// SpawnsPerCall reports that the function launches a goroutine per
	// call with no internal join or channel coordination.
	SpawnsPerCall bool
}

// neutralSummary is the safe default for unknown or recursive functions.
func neutralSummary(arity int) *Summary {
	return &Summary{Resets: make([]bool, arity), Clears: make([]bool, arity)}
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
	return fieldObjects(pkg, decl.Recv, decl.Type.Params)
}

// fieldObjects lists the objects a parameter or result list declares, one
// per position (nil for unnamed/blank positions).
func fieldObjects(pkg *Package, lists ...*ast.FieldList) []types.Object {
	var objs []types.Object
	for _, fields := range lists {
		if fields == nil {
			continue
		}
		for _, f := range fields.List {
			if len(f.Names) == 0 {
				objs = append(objs, nil)
			}
			for _, name := range f.Names {
				if name.Name == "_" {
					objs = append(objs, nil)
				} else {
					objs = append(objs, pkg.Info.Defs[name])
				}
			}
		}
	}
	return objs
}

// Summary computes (or returns the memoized) fact sheet for fn.
func (l *Loader) Summary(fn *types.Func) *Summary {
	if sum, ok := l.sums[fn]; ok {
		return sum
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return neutralSummary(0)
	}
	arity := arityOf(sig)
	if l.busy[fn] {
		return neutralSummary(arity) // recursion: neutral fixed point
	}
	if sum := stdlibSummary(fn, arity); sum != nil {
		l.sums[fn] = sum
		return sum
	}
	// Anything without loaded syntax (stdlib, interface methods) is neutral.
	site, ok := l.decls[fn]
	if !ok || site.decl.Body == nil {
		sum := neutralSummary(arity)
		l.sums[fn] = sum
		return sum
	}
	l.busy[fn] = true
	sum := l.computeSummary(site.pkg, site.decl, fn, arity)
	delete(l.busy, fn)
	l.sums[fn] = sum
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
		sum.Results = []uint64{1 << 0}
		return sum
	}
	return nil
}

// computeSummary runs the alias flow over decl's body and distills the
// Summary facts.
func (l *Loader) computeSummary(pkg *Package, decl *ast.FuncDecl, fn *types.Func, arity int) *Summary {
	sum := neutralSummary(arity)
	objs := paramObjects(pkg, decl)
	body := decl.Body
	fl := newFlow(l, pkg, objs, body)

	// Results: the alias mask of every return position.
	results := fn.Type().(*types.Signature).Results().Len()
	named := fieldObjects(pkg, decl.Type.Results)
	sum.Results = make([]uint64, results)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure's returns are not fn's returns
		case *ast.ReturnStmt:
			if len(n.Results) == 0 {
				for i, obj := range named {
					if i < results && obj != nil {
						sum.Results[i] |= fl.mask[obj]
					}
				}
				return true
			}
			if len(n.Results) == results {
				for i, r := range n.Results {
					sum.Results[i] |= fl.exprMask(r)
				}
			} else if len(n.Results) == 1 {
				for i := 0; i < results; i++ {
					sum.Results[i] |= fl.callResultMask(n.Results[0], i)
				}
			}
		}
		return true
	})

	// Pool discipline events, keyed by parameter object.
	byParam := make(map[types.Object]int, len(objs))
	for i, obj := range objs {
		if obj != nil {
			byParam[obj] = i
		}
	}
	for _, ev := range writeEvents(l, pkg, fl, body) {
		i, ok := byParam[ev.root]
		if !ok || i >= 64 {
			continue
		}
		switch ev.kind {
		case evReset:
			sum.Resets[i] = true
		case evClear:
			sum.Clears[i] = true
		case evStore:
			for j := 0; j < arity && j < 64; j++ {
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

	sum.SpawnsPerCall = spawnsPerCall(l, pkg, body)
	return sum
}

// callSummary resolves a call to a summarized function plus its positional
// argument expressions (receiver first for methods; nil for positions the
// call does not supply). Returns nil for calls with no useful summary.
func (l *Loader) callSummary(pkg *Package, call *ast.CallExpr) (*Summary, []ast.Expr) {
	fn, ok := objectOf(pkg.Info, call.Fun).(*types.Func)
	if !ok {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, nil
	}
	sum := l.Summary(fn)
	args := make([]ast.Expr, arityOf(sig))
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

// writeEvent records one pool-discipline-relevant operation on a root
// object: a re-initializing write (evReset), a nil-out of a reference
// field (evClear), or a write that may retain an alias (evStore, with the
// alias-domain mask of the stored expression).
type writeEvent struct {
	root    types.Object
	kind    writeKind
	srcMask uint64
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
func writeEvents(l *Loader, pkg *Package, aliasFl *flow, body *ast.BlockStmt) []writeEvent {
	var out []writeEvent
	add := func(root types.Object, kind writeKind, srcMask uint64) {
		if root != nil {
			out = append(out, writeEvent{root: root, kind: kind, srcMask: srcMask})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				root := fieldWriteRoot(pkg.Info, lhs)
				if root == nil {
					continue
				}
				rhs := n.Rhs[i]
				add(root, evReset, 0)
				if isNilish(rhs) && isRefType(pkg.Info.TypeOf(lhs)) {
					add(root, evClear, 0)
				} else if m := storeMask(aliasFl, rhs); m != 0 {
					add(root, evStore, m)
				}
			}
		case *ast.CallExpr:
			out = append(out, callEvents(l, pkg, aliasFl, n)...)
			return true
		}
		return true
	})
	return out
}

// callEvents derives write events from a call: Reset-named methods on the
// root, and delegation to helpers whose summaries reset/clear/store their
// parameters.
func callEvents(l *Loader, pkg *Package, aliasFl *flow, call *ast.CallExpr) []writeEvent {
	var out []writeEvent
	sum, args := l.callSummary(pkg, call)
	if sum == nil {
		// Unsummarized callee: still honor the Reset-naming convention on
		// the receiver chain.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && resetName(sel.Sel.Name) {
			if root := rootIdentObj(pkg.Info, sel.X); root != nil {
				out = append(out, writeEvent{root: root, kind: evReset})
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
			out = append(out, writeEvent{root: root, kind: evReset})
		}
		if i < len(sum.Clears) && sum.Clears[i] {
			out = append(out, writeEvent{root: root, kind: evClear})
		}
	}
	for _, pair := range sum.Stores {
		dst, src := pair[0], pair[1]
		if dst >= len(roots) || roots[dst] == nil || src >= len(args) || args[src] == nil {
			continue
		}
		if isNilish(args[src]) {
			// Re-running the storing call with nil releases the retained
			// memory: bytes.Reader.Reset(nil) and friends.
			out = append(out, writeEvent{root: roots[dst], kind: evClear})
			continue
		}
		if m := storeMask(aliasFl, args[src]); m != 0 {
			out = append(out, writeEvent{root: roots[dst], kind: evStore, srcMask: m})
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
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Interface,
		*types.Struct: // a copied struct value may still carry reference fields
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

// fieldWriteRoot resolves an assignment target that writes through a
// field/element/star of a root (o.f = x, o.a.b = x, *o = x) to the root
// object, or nil for any other target.
func fieldWriteRoot(info *types.Info, lhs ast.Expr) types.Object {
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return rootIdentObj(info, lhs)
	}
	return nil
}

// isNilish reports whether e is nil or an empty composite literal — the
// shapes that release a reference.
func isNilish(e ast.Expr) bool {
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
func spawnsPerCall(l *Loader, pkg *Package, body *ast.BlockStmt) bool {
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
			if fn, ok := objectOf(pkg.Info, n.Fun).(*types.Func); ok && l.Summary(fn).SpawnsPerCall {
				hasGo = true
			}
		}
		return true
	})
	return hasGo && !joined
}
