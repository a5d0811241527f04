// Package loading: parse + type-check module packages with go/parser and
// go/types, resolving standard-library imports through go/importer's
// "source" importer (which type-checks $GOROOT/src — no compiled export
// data needed) and module-internal imports by mapping the import path onto
// the module directory tree. This keeps carollint pure stdlib: no
// golang.org/x/tools, no `go list` subprocesses.
package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package plus its syntax.
type Package struct {
	// ImportPath is the package's module-relative import path (for
	// directories under testdata it is synthesized the same way and never
	// imported by real code).
	ImportPath string
	// Fset is the loader's shared file set.
	Fset *token.FileSet
	// Files are the parsed sources, comments included.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info is the type-checker's resolution tables.
	Info *types.Info
	// TypeErrors collects soft type-checking failures; analysis still runs
	// on the partial information, but drivers should surface these.
	TypeErrors []error
}

// Loader loads and caches packages for analysis. It implements
// types.Importer so module-internal dependencies are type-checked from
// source exactly once, while standard-library imports delegate to the
// go/importer "source" importer. One loader serves every package of a
// carollint run.
type Loader struct {
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet

	modRoot string
	modPath string
	std     types.Importer
	ctxt    build.Context
	pkgs    map[string]*Package // keyed by import path
	loading map[string]bool     // cycle guard
}

// NewLoader returns a loader rooted at the module directory modRoot whose
// go.mod declares module path modPath. Only non-test files are loaded, so a
// package's one build serves both as a dependency and as an analysis
// target.
func NewLoader(modRoot, modPath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		ctxt:    build.Default,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir loads the package in dir (absolute or relative to the current
// directory) for analysis.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.modRoot, abs)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.modRoot)
	}
	path := l.modPath
	if rel != "." {
		path = l.modPath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path)
}

// load parses and type-checks the package at the given module import path,
// once: dependency and analysis loads share the cached build.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.modRoot
	if path != l.modPath {
		dir = filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	pkg := &Package{
		ImportPath: path,
		Fset:       l.Fset,
		Files:      files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns the (possibly incomplete) package even on soft errors;
	// hard failures are already captured in pkg.TypeErrors.
	pkg.Types, _ = conf.Check(path, l.Fset, files, pkg.Info)
	l.pkgs[path] = pkg
	return pkg, nil
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		abs = parent
	}
}

// ModulePath reads the module path from modRoot/go.mod.
func ModulePath(modRoot string) (string, error) {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s/go.mod", modRoot)
}

// PackageDirs expands a pattern into package directories. A pattern ending
// in "/..." walks the tree below its root; anything else names a single
// directory (which may be under testdata — explicit mention overrides the
// usual skip). Walks skip testdata, vendor, hidden and underscore-prefixed
// directories, and directories with no non-test Go files.
func PackageDirs(pattern string) ([]string, error) {
	root, walk := strings.CutSuffix(pattern, "/...")
	if root == "" || root == "."+string(filepath.Separator) {
		root = "."
	}
	if !walk {
		return []string{root}, nil
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// hasGoFiles reports whether dir directly contains non-test Go sources.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}
