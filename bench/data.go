package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/xrand"
)

// fieldSpec names one generated input. Inputs come only from
// internal/dataset, which is deterministic in (dataset, field, step, dims).
type fieldSpec struct {
	Dataset, Field string
	Step           int
	Nx, Ny, Nz     int
}

func (s fieldSpec) String() string {
	return fmt.Sprintf("%s/%s@%d:%dx%dx%d", s.Dataset, s.Field, s.Step, s.Nx, s.Ny, s.Nz)
}

func (s fieldSpec) dims() string { return fmt.Sprintf("%dx%dx%d", s.Nx, s.Ny, s.Nz) }

func (s fieldSpec) sized(nx, ny, nz int) fieldSpec {
	s.Nx, s.Ny, s.Nz = nx, ny, nz
	return s
}

// resized returns the specs as cubes of the given edge.
func resized(specs []fieldSpec, edge int) []fieldSpec {
	out := make([]fieldSpec, len(specs))
	for i, s := range specs {
		out[i] = s.sized(edge, edge, edge)
	}
	return out
}

func (s fieldSpec) generate() (*field.Field, error) {
	f, err := dataset.Generate(s.Dataset, s.Field, dataset.Options{Nx: s.Nx, Ny: s.Ny, Nz: s.Nz, TimeStep: s.Step})
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", s, err)
	}
	f.Name = s.String()
	return f, nil
}

// input is a generated field plus its wire form (raw little-endian
// float32), built once in set-up so the timed window sends prepared bytes.
type input struct {
	spec fieldSpec
	f    *field.Field
	raw  []byte
}

// generateInputs builds every spec on at most workers goroutines. withRaw
// also serializes each field for the HTTP workloads.
func generateInputs(specs []fieldSpec, workers int, withRaw bool) ([]*input, error) {
	out := make([]*input, len(specs))
	errs := make([]error, len(specs))
	parallelDo(len(specs), workers, func(i int) {
		f, err := specs[i].generate()
		if err != nil {
			errs[i] = err
			return
		}
		in := &input{spec: specs[i], f: f}
		if withRaw {
			var buf bytes.Buffer
			buf.Grow(f.SizeBytes())
			if err := f.WriteRaw(&buf); err != nil {
				errs[i] = err
				return
			}
			in.raw = buf.Bytes()
		}
		out[i] = in
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// heldOut is the fixed list of (dataset, field) pairs the timed operations
// run on; the seed picks the time step of each from a window. Field names,
// codecs, targets and bounds are paired the same way for every seed, and
// the windows stay where a field's character changes slowly, so the
// deterministic metrics (ratios, misses, run counts) differ by a per cent
// or two between seeds instead of tens, while every seed still produces
// different bytes in a different order. No (name, step) here is in
// trainingSpecs, and none is step 0, which caroltrain trains on.
var heldOut = []struct {
	dataset, field string
	lo, hi         int // the seed picks a step in [lo, hi); hi = 0 means a static field
}{
	{"miranda", "density", 0, 0},
	{"miranda", "pressure", 0, 0},
	{"miranda", "velocityx", 0, 0},
	{"miranda", "viscosity", 0, 0},
	{"nyx", "baryon_density", 1, 6},
	{"nyx", "dark_matter_density", 1, 6},
	{"nyx", "temperature", 1, 6},
	{"nyx", "velocity_x", 1, 6},
	{"hurricane", "P", 12, 32},
	{"hurricane", "TC", 12, 32},
	{"hurricane", "U", 12, 32},
	{"hurricane", "W", 12, 32},
	{"hurricane", "QVAPOR", 12, 32},
	{"hurricane", "PRECIP", 12, 32},
	{"hurricane", "QCLOUD", 12, 32},
	{"hurricane", "CLOUD", 12, 32},
}

// heldOutSpecs returns the held-out fields at the given dims with seeded
// time steps.
func heldOutSpecs(rng *xrand.Source, nx, ny, nz int) []fieldSpec {
	specs := make([]fieldSpec, 0, len(heldOut))
	for _, h := range heldOut {
		step := 0
		if h.hi > h.lo {
			step = h.lo + rng.Intn(h.hi-h.lo)
		}
		specs = append(specs, fieldSpec{h.dataset, h.field, step, nx, ny, nz})
	}
	return specs
}

// validationSpecs is the fixed validation set the deterministic metrics
// (achieved_ratio_geomean, ratio_miss_p50, compressor_runs_per_op) are
// measured on: held-out names at fixed time steps that no seed window, no
// trainingSpecs entry and no caroltrain run contains. Because it does not
// depend on the seed, those metrics repeat bit for bit across runs and
// seeds; a median of a few dozen seeded misses moved by 18 % from seed to
// seed, which no bound could have absorbed. The seed still drives all the
// timed traffic.
func validationSpecs(edge int) []fieldSpec {
	n := edge
	return []fieldSpec{
		{"miranda", "density", 0, n, n, n},
		{"miranda", "velocityx", 0, n, n, n},
		{"nyx", "baryon_density", 6, n, n, n},
		{"nyx", "temperature", 6, n, n, n},
		{"hurricane", "P", 36, n, n, n},
		{"hurricane", "U", 36, n, n, n},
		{"hurricane", "QCLOUD", 36, n, n, n},
		{"hurricane", "QVAPOR", 36, n, n, n},
	}
}

// validationPools generates the validation set at the two edges the codecs
// use (see edgeFor), keyed by edge.
func validationPools(workers int) (map[int][]*input, error) {
	pools := make(map[int][]*input)
	for _, edge := range []int{64, sperrEdge} {
		var err error
		if pools[edge], err = generateInputs(validationSpecs(edge), workers, false); err != nil {
			return nil, err
		}
	}
	return pools, nil
}

// parallelDo calls fn(i) for i in [0, n) on at most workers goroutines and
// waits for all of them.
func parallelDo(n, workers int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// trainingSpecs is the fixed 32^3 training set of the in-process models: it
// does not depend on the seed, so the model is part of the system under
// test and the seed varies only the inputs. Steps 44..47 (hurricane) and
// 6..7 (nyx) are outside the windows heldOutSpecs draws from.
func trainingSpecs() []fieldSpec {
	const n = 32
	return []fieldSpec{
		{"miranda", "diffusivity", 0, n, n, n},
		{"miranda", "velocityy", 0, n, n, n},
		{"miranda", "velocityz", 0, n, n, n},
		{"nyx", "baryon_density", 7, n, n, n},
		{"nyx", "dark_matter_density", 6, n, n, n},
		{"nyx", "temperature", 7, n, n, n},
		{"nyx", "velocity_x", 6, n, n, n},
		{"hurricane", "P", 44, n, n, n},
		{"hurricane", "U", 45, n, n, n},
		{"hurricane", "TC", 46, n, n, n},
		{"hurricane", "QVAPOR", 47, n, n, n},
		{"hurricane", "QCLOUD", 44, n, n, n},
	}
}

// trainDatasets is the same idea for caroltrain, which takes dataset or
// dataset:field names (time step 0) instead of explicit specs.
const trainDatasets = "miranda,nyx,hurricane:U,hurricane:P,hurricane:TC"

// zipf draws ranks in [0, n) with P(rank k) proportional to 1/(k+1)^s by
// inverting the cumulative distribution.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(rng *xrand.Source) int {
	u := rng.Float64()
	for k, c := range z.cdf {
		if u <= c {
			return k
		}
	}
	return len(z.cdf) - 1
}

// opListHash digests the ordered operation descriptions of a run. Two runs
// with the same seed must produce the same hash; it is stamped into the
// output so a reader can tell whether two result sets measured the same
// work.
func opListHash(descs []string) string {
	h := sha256.New()
	for _, d := range descs {
		h.Write([]byte(d))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Seed streams: each purpose derives its own generator so adding draws to
// one does not shift another.
const (
	streamFields uint64 = 0x9e3779b97f4a7c15
	streamOps    uint64 = 0xbf58476d1ce4e5b9
	streamCycles uint64 = 0xd6e8feb86659fd93
)

func seeded(seed, stream uint64) *xrand.Source { return xrand.New(seed*0x94d049bb133111eb ^ stream) }
