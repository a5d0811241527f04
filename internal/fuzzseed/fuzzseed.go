// Package fuzzseed writes seed inputs in the Go fuzzing corpus file format,
// so packages can check their fuzz seeds into testdata/fuzz/<Target>/ and
// have them replayed by plain `go test` runs.
package fuzzseed

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// corpusVersion is the header line the Go toolchain expects in corpus files.
const corpusVersion = "go test fuzz v1"

// WriteCorpus writes each seed as testdata/fuzz/<target>/seed-NN relative to
// dir, replacing any previous seed-NN files. Only single-[]byte-argument
// fuzz targets are supported, which is all this repo uses.
func WriteCorpus(dir, target string, seeds [][]byte) error {
	out := filepath.Join(dir, "testdata", "fuzz", target)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for i, s := range seeds {
		body := fmt.Sprintf("%s\n[]byte(%s)\n", corpusVersion, strconv.Quote(string(s)))
		name := filepath.Join(out, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Read decodes one corpus file in the form WriteCorpus writes (a single
// []byte value), so a test can replay a checked-in seed outside its fuzz
// target.
func Read(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	head, body, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	if head == corpusVersion && strings.HasPrefix(body, "[]byte(") && strings.HasSuffix(body, ")") {
		if s, err := strconv.Unquote(body[len("[]byte(") : len(body)-1]); err == nil {
			return []byte(s), nil
		}
	}
	return nil, fmt.Errorf("fuzzseed: %s is not a []byte corpus file", path)
}

// Regenerate reports whether corpus regeneration was requested via the
// CAROL_WRITE_CORPUS environment variable.
func Regenerate() bool {
	return os.Getenv("CAROL_WRITE_CORPUS") != ""
}

// Check either regenerates the corpora for the given targets (when
// CAROL_WRITE_CORPUS is set) or asserts each target's checked-in corpus
// directory exists and is non-empty, so a deleted corpus fails loudly in CI
// instead of silently shrinking fuzz coverage.
func Check(t TB, dir string, targets map[string][][]byte) {
	t.Helper()
	for target, seeds := range targets {
		if Regenerate() {
			if err := WriteCorpus(dir, target, seeds); err != nil {
				t.Fatalf("%s: %v", target, err)
			}
			continue
		}
		ents, err := os.ReadDir(filepath.Join(dir, "testdata", "fuzz", target))
		if err != nil || len(ents) == 0 {
			t.Fatalf("%s: missing checked-in corpus (regenerate with CAROL_WRITE_CORPUS=1): %v", target, err)
		}
	}
}

// TB is the subset of testing.TB this package needs; declared locally so the
// non-test package does not import "testing".
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}
