package analysis

import (
	"go/ast"
	"go/types"
)

// PoolReset machine-checks the pooled-scratch discipline from PR 6's arena
// work (zpool/huffman/sperr): an object taken from a sync.Pool carries
// whatever state its previous user left, so
//
//   - every Get must be followed (somewhere in the function) by a reset of
//     the object — a field write, a Reset/Init/Release-named method, or a
//     call to a helper whose summary re-initializes that parameter; and
//   - every Put must not retain caller-visible memory: if the function (or
//     a helper it calls, via Stores summaries) parked a caller-provided
//     slice/pointer inside the pooled object, a nil-out (field = nil, or a
//     re-Reset with nil) must appear before the object goes back to the
//     pool. A retained buffer keeps caller memory alive indefinitely and
//     leaks data across unrelated Get/Put pairs.
//
// The check is flow-insensitive on purpose: a reset or clear anywhere in
// the function discharges the obligation, which matches the defer-based
// idiom (`defer func() { d.buf = nil; pool.Put(d) }()`).
var PoolReset = &Analyzer{
	Name: "poolreset",
	Doc: "flags sync.Pool objects used without reset after Get, and Puts " +
		"that retain caller-visible slices or pointers",
	Run: runPoolReset,
}

func runPoolReset(p *Pass) error {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.poolResetFunc(fd)
		}
	}
	return nil
}

func (p *Pass) poolResetFunc(fd *ast.FuncDecl) {
	aliasFl := newFlow(p.Loader, p.Package, paramObjects(p.Package, fd), fd.Body)
	events := writeEvents(p.Loader, p.Package, aliasFl, fd.Body)
	resets := make(map[types.Object]bool)
	clears := make(map[types.Object]bool)
	stores := make(map[types.Object]uint64)
	for _, ev := range events {
		switch ev.kind {
		case evReset:
			resets[ev.root] = true
		case evClear:
			clears[ev.root] = true
		case evStore:
			stores[ev.root] |= ev.srcMask
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// x := pool.Get().(*T) — require a reset of x somewhere.
			for i, rhs := range n.Rhs {
				if !isPoolGet(p.Info, rhs) || i >= len(n.Lhs) {
					continue
				}
				obj := aliasFl.lhsObject(n.Lhs[i])
				if obj == nil {
					continue
				}
				if !resets[obj] && !clears[obj] {
					p.Reportf(n.Pos(), "pooled object is not reset between Get and use: stale state from the previous user leaks through")
				}
			}
		case *ast.CallExpr:
			// pool.Put(x) — x must not retain caller-visible memory.
			if !isPoolMethod(p.Info, n, "Put") || len(n.Args) != 1 {
				return true
			}
			root := rootIdentObj(p.Info, n.Args[0])
			if root == nil {
				return true
			}
			if stores[root] != 0 && !clears[root] {
				p.Reportf(n.Pos(), "pooled object retains caller-visible memory across Put: nil the stored reference (or re-Reset with nil) before returning it to the pool")
			}
		}
		return true
	})
}

// isPoolGet matches sync.Pool Get calls, optionally through a type
// assertion (`pool.Get().(*T)`).
func isPoolGet(info *types.Info, e ast.Expr) bool {
	if ta, ok := ast.Unparen(e).(*ast.TypeAssertExpr); ok {
		e = ta.X
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	return isPoolMethod(info, call, "Get")
}

// isPoolMethod reports whether call is sync.Pool.<name> on any receiver.
func isPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	t := info.TypeOf(sel.X)
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
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}
