package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sharedLoader caches stdlib type-checking across the fixture tests.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		path, err := ModulePath(root)
		if err != nil {
			loaderErr = err
			return
		}
		loader = NewLoader(root, path)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loader
}

// runFixture loads testdata/src/<name> and runs the analyzers over it.
func runFixture(t *testing.T, name string, analyzers []*Analyzer) (*Package, []Diagnostic) {
	t.Helper()
	pkg, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", name, terr)
	}
	diags, err := RunChecks(fixtureLoader(t), pkg, analyzers, Names(All()))
	if err != nil {
		t.Fatal(err)
	}
	return pkg, diags
}

// wantRe extracts the backquoted expectation patterns from a
// `// want `...` `...“ comment.
var wantRe = regexp.MustCompile("`([^`]+)`")

// expectations maps file:line to the want patterns on that line.
func expectations(t *testing.T, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				i := strings.Index(text, "want `")
				if i < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := posKey(pos.Filename, pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(text[i+len("want "):], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, m[1], err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

func posKey(file string, line int) string {
	return filepath.Base(file) + ":" + strconv.Itoa(line)
}

// checkGolden verifies that diagnostics and want comments agree line by
// line: every diagnostic must match a want on its line, and every want must
// be matched by at least one diagnostic.
func checkGolden(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := expectations(t, pkg)
	matched := make(map[string][]bool)
	for key, res := range wants {
		matched[key] = make([]bool, len(res))
	}
	for _, d := range diags {
		key := posKey(d.Pos.Filename, d.Pos.Line)
		ok := false
		for i, re := range wants[key] {
			if re.MatchString(d.Message) {
				matched[key][i] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s [%s]", key, d.Message, d.Check)
		}
	}
	for key, res := range wants {
		for i, re := range res {
			if !matched[key][i] {
				t.Errorf("%s: no diagnostic matched want `%s`", key, re)
			}
		}
	}
}

func TestGlobalRandGolden(t *testing.T) {
	pkg, diags := runFixture(t, "globalrand", []*Analyzer{GlobalRand})
	checkGolden(t, pkg, diags)
}

func TestFloatEqGolden(t *testing.T) {
	pkg, diags := runFixture(t, "floateq", []*Analyzer{FloatEq})
	checkGolden(t, pkg, diags)
}

func TestMapOrderGolden(t *testing.T) {
	pkg, diags := runFixture(t, "maporder", []*Analyzer{MapOrder})
	checkGolden(t, pkg, diags)
}

func TestGoPoolGolden(t *testing.T) {
	pkg, diags := runFixture(t, "gopool", []*Analyzer{GoPool})
	checkGolden(t, pkg, diags)
}

func TestErrDropGolden(t *testing.T) {
	pkg, diags := runFixture(t, "errdrop", []*Analyzer{ErrDrop})
	checkGolden(t, pkg, diags)
}

func TestPoolResetGolden(t *testing.T) {
	pkg, diags := runFixture(t, "poolreset", []*Analyzer{PoolReset})
	checkGolden(t, pkg, diags)
}

// TestAllowSuppression runs the full suite over a fixture whose violations
// are all annotated; nothing may be reported.
func TestAllowSuppression(t *testing.T) {
	_, diags := runFixture(t, "allow", All())
	for _, d := range diags {
		t.Errorf("suppressed fixture produced %s", d)
	}
}

// TestBadAllowDirective checks that a directive naming an unknown check is
// itself diagnosed and does not suppress the real finding.
func TestBadAllowDirective(t *testing.T) {
	pkg, diags := runFixture(t, "badallow", All())
	checkGolden(t, pkg, diags)
	checks := make(map[string]bool)
	for _, d := range diags {
		checks[d.Check] = true
	}
	if !checks[DirectiveCheck] || !checks["floateq"] {
		t.Errorf("want both a %s and a floateq diagnostic, got %v", DirectiveCheck, diags)
	}
}

// TestEmptyDirective exercises the no-check-names form directly.
func TestEmptyDirective(t *testing.T) {
	fset := token.NewFileSet()
	src := "package p\n\nfunc f() {\n\t//carol:allow\n}\n"
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	_, _, bad := buildAllowIndex(fset, []*ast.File{f}, Names(All()))
	if len(bad) != 1 || !strings.Contains(bad[0].Message, "without check names") {
		t.Fatalf("want one empty-directive diagnostic, got %v", bad)
	}
}

// TestPackageDirs checks pattern expansion skips testdata during walks but
// honors explicit mention.
func TestPackageDirs(t *testing.T) {
	dirs, err := PackageDirs("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("walk entered testdata: %s", d)
		}
	}
	if len(dirs) == 0 {
		t.Error("walk found no packages")
	}
	explicit, err := PackageDirs(filepath.Join("testdata", "src", "floateq"))
	if err != nil || len(explicit) != 1 {
		t.Errorf("explicit dir: got %v, %v", explicit, err)
	}
}
