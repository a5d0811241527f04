package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// GoPool keeps goroutine fan-out bounded by the machine, not by the input.
// Compute fans out through internal/pipeline (FanOut and the ordered block
// pipeline), whose workers are Config.Workers-bounded, so outside main
// packages and internal/pipeline every `go` statement is a finding: a
// server's lifecycle goroutine carries `//carol:allow gopool <reason>`,
// anything else belongs on the pool. A launcher helper called per item is
// caught at the helper's own go statement.
//
// In main packages and internal/pipeline a `go` statement inside a loop
// must show a bound on the fan-out: either
//
//   - the innermost enclosing for-loop iterates up to a worker count
//     (condition compares against an identifier/selector matching
//     workers/procs/threads/parallel, or runtime.GOMAXPROCS/NumCPU), or
//   - the loop body contains a channel send/receive — the counting-
//     semaphore pattern (the acquire may live inside the spawned closure;
//     that bounds concurrent work rather than goroutine creation, which is
//     the resource this check cares about).
var GoPool = &Analyzer{
	Name: "gopool",
	Doc: "flags go statements outside main packages and internal/pipeline, " +
		"and go statements in loops without a worker-count bound or semaphore",
	Run: runGoPool,
}

// workerishName matches loop bounds that denote a machine-derived worker
// count rather than an input size.
var workerishName = regexp.MustCompile(`(?i)worker|n?procs?$|threads?$|parallel|gomaxprocs|numcpu|ncpu`)

func runGoPool(p *Pass) error {
	library := p.Pkg.Name() != "main" && !strings.HasSuffix(p.Pkg.Path(), "/internal/pipeline")
	for _, f := range p.Files {
		if !library {
			p.walkGoPool(f, nil)
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "go statement outside internal/pipeline: fan out through pipeline.FanOut, or allow a lifecycle goroutine with its reason")
			}
			return true
		})
	}
	return nil
}

// walkGoPool tracks the innermost enclosing loop while descending; function
// literals do not reset it — a closure spawned per iteration still runs per
// iteration.
func (p *Pass) walkGoPool(n ast.Node, loop ast.Node) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if c == n {
				return true // the loop we were called on; descend into it
			}
			p.walkGoPool(c, c)
			return false
		case *ast.GoStmt:
			if loop != nil && !p.loopBounded(loop) {
				p.Reportf(c.Pos(), "goroutine launched per loop iteration with no bound: use a Config.Workers-sized pool or a semaphore channel")
			}
		}
		return true
	})
}

// loopBounded reports whether the loop's fan-out is visibly bounded.
func (p *Pass) loopBounded(loop ast.Node) bool {
	if fs, ok := loop.(*ast.ForStmt); ok && fs.Cond != nil {
		if be, ok := fs.Cond.(*ast.BinaryExpr); ok {
			var bound ast.Expr
			switch be.Op {
			case token.LSS, token.LEQ:
				bound = be.Y
			case token.GTR, token.GEQ:
				bound = be.X
			}
			if bound != nil && isWorkerBound(bound) {
				return true
			}
		}
	}
	var body *ast.BlockStmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.RangeStmt:
		body = l.Body
	}
	return hasChannelOp(body)
}

// isWorkerBound reports whether e names a worker count.
func isWorkerBound(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return workerishName.MatchString(e.Name)
	case *ast.SelectorExpr:
		return workerishName.MatchString(e.Sel.Name)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			return workerishName.MatchString(sel.Sel.Name)
		}
	}
	return false
}

// hasChannelOp reports whether the block contains a channel send or receive.
func hasChannelOp(body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		}
		return !found
	})
	return found
}
