// Package analysis is a dependency-free static-analysis framework for this
// repository: a pass interface over type-checked packages, file/line
// diagnostics, and inline `//carol:allow <check>` suppression directives.
//
// CAROL's value proposition is a *reproducible* ratio→error-bound model, so
// the analyzers shipped with the framework (see checks.go) machine-check the
// invariants that keep runs bit-identical — no global RNG state, no
// map-iteration-order-dependent serialization, no unbounded goroutine
// fan-out, no pooled scratch reused stale or holding caller memory — plus
// the float-equality and dropped-error hygiene the CLI tools need. The
// framework itself is generic: an Analyzer is a named Run function over a
// Pass, and cmd/carollint drives the whole suite across ./...
//
// Everything here is built on go/parser, go/types and go/importer only.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	// Pos is the resolved file:line:column of the finding.
	Pos token.Position
	// Check is the name of the analyzer that produced it.
	Check string
	// Message describes the problem and the sanctioned fix.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Check)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset resolves token.Pos values for every file in the package.
	Fset *token.FileSet
	// Files are the package's parsed source files (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's expression/object resolutions.
	Info *types.Info
	// Package is the loaded package (syntax and types together); poolreset
	// builds its alias flows from it.
	Package *Package
	// Loader is the run's one loader; its per-function summaries are shared
	// by every pass.
	Loader *Loader

	report func(Diagnostic)
}

// Reportf records a finding at pos. Suppression directives are applied by
// the runner, not here, so analyzers always report unconditionally.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the check in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description of what the check enforces and why.
	Doc string
	// Run inspects the package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// directivePrefix introduces an inline suppression comment:
//
//	//carol:allow floateq            — suppress floateq here
//	//carol:allow floateq,maporder   — suppress several checks
//	//carol:allow gopool chunk count equals Workers by construction
//
// Everything after the first field is free-text rationale. A directive
// applies to findings on its own line (trailing comment) and on the line
// directly below it (comment-above-statement style).
const directivePrefix = "carol:allow"

// DirectiveCheck is the pseudo-check name used for malformed or unknown
// suppression directives, so a typo cannot silently disable a real check.
const DirectiveCheck = "directive"

// allowDirective is one parsed suppression entry: one check name of one
// directive comment. `used` is set when the entry actually suppresses a
// finding, so stale directives can be flagged.
type allowDirective struct {
	pos   token.Position
	check string
	used  bool
}

// allowIndex maps file → line → check name → the directive entries that
// cover that line for that check.
type allowIndex map[string]map[int]map[string][]*allowDirective

// buildAllowIndex scans the comments of every file for suppression
// directives. known is the set of valid check names; directives naming
// anything else produce a DirectiveCheck diagnostic. The flat entry list is
// returned alongside the line index so the runner can report unused ones.
func buildAllowIndex(fset *token.FileSet, files []*ast.File, known map[string]bool) (allowIndex, []*allowDirective, []Diagnostic) {
	idx := make(allowIndex)
	var entries []*allowDirective
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, directivePrefix)
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // e.g. carol:allowance — not our directive
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{
						Pos:     pos,
						Check:   DirectiveCheck,
						Message: "carol:allow directive without check names",
					})
					continue
				}
				for _, name := range strings.Split(fields[0], ",") {
					if name == "" {
						continue
					}
					if !known[name] {
						bad = append(bad, Diagnostic{
							Pos:     pos,
							Check:   DirectiveCheck,
							Message: fmt.Sprintf("carol:allow names unknown check %q", name),
						})
						continue
					}
					entry := &allowDirective{pos: pos, check: name}
					entries = append(entries, entry)
					file := idx[pos.Filename]
					if file == nil {
						file = make(map[int]map[string][]*allowDirective)
						idx[pos.Filename] = file
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if file[line] == nil {
							file[line] = make(map[string][]*allowDirective)
						}
						file[line][name] = append(file[line][name], entry)
					}
				}
			}
		}
	}
	return idx, entries, bad
}

// suppressed reports whether d is covered by an allow directive, marking
// the covering entries used.
func (idx allowIndex) suppressed(d Diagnostic) bool {
	covering := idx[d.Pos.Filename][d.Pos.Line][d.Check]
	for _, entry := range covering {
		entry.used = true
	}
	return len(covering) > 0
}

// RunChecks applies the analyzers to one loaded package, honors allow
// directives, and returns deduplicated diagnostics sorted by position.
// knownChecks names every check a directive may legitimately reference
// (usually Names(All()) even when running a subset, so an allow for an
// analyzer that is not currently selected is not reported as a typo).
// A directive whose check DID run but suppressed nothing is reported as an
// unused directive — stale allows hide future regressions.
func RunChecks(l *Loader, pkg *Package, analyzers []*Analyzer, knownChecks map[string]bool) ([]Diagnostic, error) {
	idx, entries, diags := buildAllowIndex(pkg.Fset, pkg.Files, knownChecks)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Package:  pkg,
			Loader:   l,
			report: func(d Diagnostic) {
				if !idx.suppressed(d) {
					diags = append(diags, d)
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
		}
	}
	ran := Names(analyzers)
	for _, entry := range entries {
		if ran[entry.check] && !entry.used {
			diags = append(diags, Diagnostic{
				Pos:     entry.pos,
				Check:   DirectiveCheck,
				Message: fmt.Sprintf("unused carol:allow directive: %s reports nothing here", entry.check),
			})
		}
	}
	return dedupeSort(diags), nil
}

// dedupeSort orders diagnostics by file, line, column, check and removes
// exact duplicates (nested constructs can make an analyzer visit a node
// twice).
func dedupeSort(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// Names returns the set of analyzer names, for directive validation.
func Names(analyzers []*Analyzer) map[string]bool {
	m := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		m[a.Name] = true
	}
	return m
}

// isFloat reports whether t's underlying type is a floating-point or
// complex basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// objectOf resolves the called function/ident to its declaring object, or
// nil. It sees through parentheses and selector expressions.
func objectOf(info *types.Info, fun ast.Expr) types.Object {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// isPkgFunc reports whether fun resolves to a package-level function of the
// given import path and name (name == "" matches any).
func isPkgFunc(info *types.Info, fun ast.Expr, pkgPath, name string) bool {
	obj := objectOf(info, fun)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if obj.Pkg().Path() != pkgPath {
		return false
	}
	return name == "" || obj.Name() == name
}
