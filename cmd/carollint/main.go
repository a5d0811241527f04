// Command carollint runs the repository's static-analysis suite (see
// internal/analysis) over non-test files: the determinism, float-discipline,
// bounded-concurrency and error-hygiene checks plus poolreset, the pooled-
// scratch discipline checked through helper calls, that keep the
// fixed-ratio pipeline reproducible.
//
//	carollint ./...                 # whole module (the CI gate)
//	carollint ./internal/rf         # one package
//	carollint -checks floateq ./... # a subset of checks
//	carollint -json ./...           # machine-readable findings on stdout
//	carollint -github ./...         # GitHub Actions annotation commands
//
// Findings print as file:line:col: message [check]; the exit status is 1
// when anything is reported, 2 on load/usage errors, 0 when clean. A
// finding is silenced in place with `//carol:allow <check> <reason>` on the
// offending line or the line above; an allow whose check reports nothing is
// itself a finding, so suppressions cannot outlive the code they excuse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"carol/internal/analysis"
)

func main() {
	os.Exit(run())
}

// finding is the JSON shape of one diagnostic.
type finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func run() int {
	checkList := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	github := flag.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	flag.Parse()

	checks, err := selectChecks(*checkList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carollint:", err)
		return 2
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "carollint:", err)
		return 2
	}
	modRoot, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carollint:", err)
		return 2
	}
	modPath, err := analysis.ModulePath(modRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carollint:", err)
		return 2
	}
	loader := analysis.NewLoader(modRoot, modPath)
	known := analysis.Names(analysis.All())

	status := 0
	var all []analysis.Diagnostic
	for _, pattern := range patterns {
		dirs, err := analysis.PackageDirs(pattern)
		if err != nil {
			fmt.Fprintln(os.Stderr, "carollint:", err)
			return 2
		}
		for _, dir := range dirs {
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "carollint:", err)
				status = 2
				continue
			}
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintln(os.Stderr, "carollint: type error:", terr)
				status = 2
			}
			diags, err := analysis.RunChecks(loader, pkg, checks, known)
			if err != nil {
				fmt.Fprintln(os.Stderr, "carollint:", err)
				status = 2
				continue
			}
			for _, d := range diags {
				all = append(all, relativize(cwd, d))
				if status == 0 {
					status = 1
				}
			}
		}
	}
	if err := emit(all, *jsonOut, *github); err != nil {
		fmt.Fprintln(os.Stderr, "carollint:", err)
		return 2
	}
	return status
}

// emit renders the collected findings in the selected output mode(s).
// -json and -github may be combined: JSON goes to stdout, annotations are
// workflow commands GitHub scrapes from the log either way.
func emit(diags []analysis.Diagnostic, jsonOut, github bool) error {
	if jsonOut {
		findings := make([]finding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, finding{
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Check:   d.Check,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			return err
		}
	}
	if github {
		for _, d := range diags {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=carollint %s::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, escapeAnnotation(d.Message))
		}
	}
	if !jsonOut && !github {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	return nil
}

// escapeAnnotation encodes the characters GitHub workflow commands treat
// specially in the message position.
func escapeAnnotation(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

// selectChecks resolves the -checks flag against the registered suite.
func selectChecks(list string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if list == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(list, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (have: %s)", name, checkNames(all))
		}
		out = append(out, a)
	}
	return out, nil
}

func checkNames(all []*analysis.Analyzer) string {
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// relativize shortens the diagnostic's file path relative to the current
// directory for readable, clickable output.
func relativize(cwd string, d analysis.Diagnostic) analysis.Diagnostic {
	if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		d.Pos.Filename = rel
	}
	return d
}
