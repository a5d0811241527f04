package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"testing"

	"carol/internal/codecs"
	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/trainset"
)

// servedTrainingFields are the twelve 32³ fields the lib_fixed_ratio
// benchmark trains every codec on (bench/data.go's trainingSpecs).
func servedTrainingFields(t *testing.T) []*field.Field {
	t.Helper()
	specs := []struct {
		dataset, field string
		step           int
	}{
		{"miranda", "diffusivity", 0},
		{"miranda", "velocityy", 0},
		{"miranda", "velocityz", 0},
		{"nyx", "baryon_density", 7},
		{"nyx", "dark_matter_density", 6},
		{"nyx", "temperature", 7},
		{"nyx", "velocity_x", 6},
		{"hurricane", "P", 44},
		{"hurricane", "U", 45},
		{"hurricane", "TC", 46},
		{"hurricane", "QVAPOR", 47},
		{"hurricane", "QCLOUD", 44},
	}
	out := make([]*field.Field, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = dataset.Generate(s.dataset, s.field,
				dataset.Options{Nx: 32, Ny: 32, Nz: 32, TimeStep: s.step})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// forestDigest hashes every stored field of a framework's trained forest:
// tree shapes, split features, thresholds, children, leaf values and gains.
func forestDigest(t *testing.T, fw *Framework) string {
	t.Helper()
	forest, err := fw.Forest()
	if err != nil {
		t.Fatal(err)
	}
	fl := forest.Flatten()
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, n := range fl.TreeNodes {
		put(uint64(n))
	}
	for i := range fl.Feature {
		put(uint64(fl.Feature[i]))
		put(math.Float64bits(fl.Thresh[i]))
		put(uint64(fl.Left[i]))
		put(uint64(fl.Right[i]))
		put(math.Float64bits(fl.Value[i]))
		put(math.Float64bits(fl.Gain[i]))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestServedModelsPinned trains every codec the way the lib_fixed_ratio
// benchmark does (the twelve 32³ training fields, ForestCap 32, Seed 1)
// and pins the forests bit for bit, with the Bayesian optimizer's best
// cross-validation score. A change to the split search, the forest's RNG
// use or the cross-validation folds that moves a served model fails here.
func TestServedModelsPinned(t *testing.T) {
	want := map[string]struct {
		digest    string
		bestScore uint64
	}{
		"szx":   {"9485e1f2964a266b", 0xbf92ae4ef1cb0378},
		"zfp":   {"e40e2b63f7e3b33e", 0xbf97c83a419a4d4f},
		"sz3":   {"2bbabf36e68bc8df", 0xbf8bc8b96fc39283},
		"sperr": {"64cfe3c6f4f52325", 0xbf94e17ead5155d3},
	}
	fields := servedTrainingFields(t)
	for _, name := range codecs.Names {
		fw, err := New(name, Config{ForestCap: 32, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Collect(fields); err != nil {
			t.Fatal(err)
		}
		ts, err := fw.Train()
		if err != nil {
			t.Fatal(err)
		}
		got, bits := forestDigest(t, fw), math.Float64bits(ts.BestScore)
		if w := want[name]; got != w.digest || bits != w.bestScore {
			t.Errorf("%s: forest %s, best score bits %#x; want %s, %#x", name, got, bits, w.digest, w.bestScore)
		}
	}
}

// table3Fields is Table 3's quick-scale training set for NYX baryon density
// (internal/experiments, paramsFor(ScaleQuick)): steps 0-5 at 40³.
func table3Fields(t *testing.T) []*field.Field {
	t.Helper()
	out := make([]*field.Field, 6)
	for step := range out {
		f, err := dataset.Generate("nyx", "baryon_density", dataset.Options{Nx: 40, Ny: 40, Nz: 40, TimeStep: step})
		if err != nil {
			t.Fatal(err)
		}
		out[step] = f
	}
	return out
}

// setDigest hashes every sample of a training set in order: the five
// features, the ratio and the relative error bound.
func setDigest(samples []trainset.Sample) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range samples {
		for _, v := range append(s.Features.Slice(), s.Ratio, s.RelEB) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestFXRZPinned trains the FXRZ preset for every codec the way Table 3
// does at quick scale (NYX baryon density steps 0-5, the 10-point sweep,
// ForestCap 20, Seed 1, 10 grid configurations) and pins the training set,
// the forest and the best cross-validation score bit for bit. The values
// were recorded with the standalone FXRZ framework NewFXRZ replaced, so
// Table 3, Fig. 7 and Fig. 8 keep their FXRZ columns.
func TestFXRZPinned(t *testing.T) {
	want := map[string]struct {
		set, forest string
		bestScore   uint64
	}{
		"szx":   {"3b6beb9bc17bb5c1", "291895e938ebbf3c", 0xbface465fa859561},
		"zfp":   {"212cff0e4d385b17", "1b308f3fea606567", 0xbfad38cabe5abc55},
		"sz3":   {"038a2e90613042f1", "a2cff1460c486d08", 0xbfa5b20a88f46958},
		"sperr": {"c85242e3634ca531", "4a377334e59324a7", 0xbfab134995b07d8b},
	}
	fields := table3Fields(t)
	for _, name := range codecs.Names {
		codec, err := codecs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		fw := NewFXRZ(codec, Config{
			ErrorBounds: trainset.GeometricBounds(1e-4, 1e-1, 10), BOIterations: 10, ForestCap: 20, Seed: 1,
		})
		cs, err := fw.Collect(fields)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := fw.Train()
		if err != nil {
			t.Fatal(err)
		}
		if cs.FullCompressorRuns != 60 || cs.SurrogateRuns != 0 || ts.Evaluated != 10 {
			t.Errorf("%s: %d full runs, %d surrogate runs, %d configurations; want 60, 0, 10",
				name, cs.FullCompressorRuns, cs.SurrogateRuns, ts.Evaluated)
		}
		set, forest, bits := setDigest(fw.TrainingSet().Samples()), forestDigest(t, fw), math.Float64bits(ts.BestScore)
		if w := want[name]; set != w.set || forest != w.forest || bits != w.bestScore {
			t.Errorf("%s: training set %s, forest %s, best score bits %#x; want %s, %s, %#x",
				name, set, forest, bits, w.set, w.forest, w.bestScore)
		}
	}
}
