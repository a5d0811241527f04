package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// GoPool reports `go` statements launched inside loops with no visible
// bound on the fan-out. One goroutine per item scales with input size, not
// with the machine, which is exactly what Config.Workers exists to prevent
// (PR 1 made every training/prediction pool Workers-bounded). A launch
// site is considered bounded when either
//
//   - the innermost enclosing for-loop iterates up to a worker count
//     (condition compares against an identifier/selector matching
//     workers/procs/threads/parallel, or runtime.GOMAXPROCS/NumCPU), or
//   - the loop body contains a channel send/receive — the counting-
//     semaphore pattern (the acquire may live inside the spawned closure;
//     that bounds concurrent work rather than goroutine creation, which is
//     the resource this check cares about).
//
// The check is interprocedural: a call to a helper whose summary says it
// launches an unjoined goroutine per invocation (SpawnsPerCall) counts as a
// launch site, so fan-out hidden behind a launcher function is still
// caught; conversely, launchers that coordinate through channels or a
// WaitGroup (internal/pipeline's runOrdered) summarize as bounded and need
// no allow directive at their call sites.
//
// Anything else needs restructuring onto a worker pool, or an explicit
// //carol:allow gopool with the reason the fan-out is bounded.
var GoPool = &Analyzer{
	Name: "gopool",
	Doc: "flags go statements in loops without a worker-count bound or " +
		"semaphore; use the Config.Workers pool pattern",
	Run: runGoPool,
}

// workerishName matches loop bounds that denote a machine-derived worker
// count rather than an input size.
var workerishName = regexp.MustCompile(`(?i)worker|n?procs?$|threads?$|parallel|gomaxprocs|numcpu|ncpu`)

func runGoPool(p *Pass) error {
	for _, f := range p.Files {
		p.walkGoPool(f, nil)
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
			// The spawned call itself is accounted for by the GoStmt above;
			// don't double-report it as a spawning helper call — but keep
			// descending into the closure body and the arguments.
			if c.Call != nil {
				p.walkGoPool(c.Call.Fun, loop)
				for _, a := range c.Call.Args {
					p.walkGoPool(a, loop)
				}
			}
			return false
		case *ast.CallExpr:
			// A helper whose summary launches an unjoined goroutine per call.
			if fn, ok := objectOf(p.Info, c.Fun).(*types.Func); ok && loop != nil &&
				p.Loader.Summary(fn).SpawnsPerCall && !p.loopBounded(loop) {
				p.Reportf(c.Pos(), "%s launches an unjoined goroutine per call; calling it per loop iteration is unbounded fan-out", fn.Name())
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
