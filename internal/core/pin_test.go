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
		"szx":   {"3caa2a6e88366da5", 0xbf92c7644bd006c5},
		"zfp":   {"a434861e2d9d50e5", 0xbf97d87658b844f1},
		"sz3":   {"f0388e79c7ee6522", 0xbf8bce0ed7175b30},
		"sperr": {"ea1eede26b165794", 0xbf94c70f494f296b},
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
