package dataset

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// goldenFile holds one "<case> <sha256(samples)>" line per generated field.
// It was recorded at commit 0f76280504108876171b9d640d896a20b0ecebfd, before
// xrand.Noise memoized its lattice corners, and pins every generator
// bit for bit across commits: codec goldens, trained models and the
// benchmark's exact metrics all start from these samples. A change to the
// noise or the generators must leave it alone; only a deliberate change to
// the data regenerates it (CAROL_WRITE_GOLDEN=1) and says so.
const goldenFile = "testdata/golden_digests.txt"

// goldenDims are the grids every field is generated at: the dataset default
// (zero Options), a small cube, an odd non-cube and the benchmark's 64³.
var goldenDims = []Options{{}, {Nx: 16, Ny: 16, Nz: 16}, {Nx: 33, Ny: 17, Nz: 9}, {Nx: 64, Ny: 64, Nz: 64}}

// goldenCases digests every dataset × field × goldenDims, at steps 0, 3 and
// 21 for the time-evolving datasets. Fields are generated on GOMAXPROCS
// workers; each case is independent, so the digests do not depend on it.
func goldenCases(t *testing.T) map[string]string {
	t.Helper()
	type job struct {
		key, dataset, field string
		opts                Options
	}
	var jobs []job
	for _, spec := range Summary() {
		steps := []int{0}
		if spec.TimeSteps > 1 {
			steps = []int{0, 3, 21}
		}
		for _, fn := range spec.Fields {
			for _, d := range goldenDims {
				dims := "default"
				if d.Nx > 0 {
					dims = fmt.Sprintf("%dx%dx%d", d.Nx, d.Ny, d.Nz)
				}
				for _, step := range steps {
					opts := d
					opts.TimeStep = step
					key := fmt.Sprintf("%s/%s/%s/t=%d", spec.Name, fn, dims, step)
					jobs = append(jobs, job{key, spec.Name, fn, opts})
				}
			}
		}
	}
	out := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f, err := Generate(jobs[i].dataset, jobs[i].field, jobs[i].opts)
				if err != nil {
					errs[i] = err
					continue
				}
				h := sha256.New()
				var b [4]byte
				for _, v := range f.Data {
					binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
					h.Write(b[:])
				}
				out[i] = hex.EncodeToString(h.Sum(nil))
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	got := make(map[string]string, len(jobs))
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", j.key, errs[i])
		}
		got[j.key] = out[i]
	}
	return got
}

// TestGoldenDigests pins every generated field's samples to the digests
// recorded in goldenFile.
func TestGoldenDigests(t *testing.T) {
	got := goldenCases(t)
	if os.Getenv("CAROL_WRITE_GOLDEN") != "" {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fh, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	seen := 0
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		parts := strings.Fields(sc.Text())
		if len(parts) != 2 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		seen++
		g, ok := got[parts[0]]
		if !ok {
			t.Errorf("%s: recorded case no longer produced", parts[0])
			continue
		}
		if g != parts[1] {
			t.Errorf("%s: samples changed (sha256 %s, recorded %s)", parts[0], g, parts[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(got) {
		t.Errorf("golden file has %d cases, suite produces %d", seen, len(got))
	}
}
