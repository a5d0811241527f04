package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PoolReset keeps pooled scratch on zpool.FreeList, whose Put runs the
// owner's release function on every object: it drops the references the
// caller owns and refuses objects grown too large to keep, so no object
// reaches a list holding caller memory or an oversized array. A sync.Pool
// has no such hook — its users had to remember the reset at every Put, and
// its Puts are dropped at random under the race detector — so any use of
// sync.Pool outside internal/zpool is a finding.
var PoolReset = &Analyzer{
	Name: "poolreset",
	Doc: "flags sync.Pool outside internal/zpool; pool scratch on " +
		"zpool.FreeList, whose release function runs on every Put",
	Run: runPoolReset,
}

func runPoolReset(p *Pass) error {
	if strings.HasSuffix(p.Pkg.Path(), "/internal/zpool") {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if tn, ok := p.Info.Uses[id].(*types.TypeName); ok && tn.Pkg() != nil &&
					tn.Pkg().Path() == "sync" && tn.Name() == "Pool" {
					p.Reportf(id.Pos(), "sync.Pool outside internal/zpool: pool scratch on zpool.FreeList, whose release runs on every Put")
				}
			}
			return true
		})
	}
	return nil
}
