package rf

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"carol/internal/xrand"
)

// trainSmallForest grows a deterministic forest over a synthetic nonlinear
// target for the serialization tests.
func trainSmallForest(t *testing.T, trees, rows, dims int) (*Forest, [][]float64) {
	t.Helper()
	rng := xrand.New(7)
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range X {
		row := make([]float64, dims)
		for j := range row {
			row[j] = rng.Float64()*4 - 2
		}
		X[i] = row
		y[i] = math.Sin(row[0]) + 0.5*row[1%dims]*row[1%dims] + 0.1*rng.Float64()
	}
	cfg := DefaultConfig()
	cfg.NEstimators = trees
	cfg.MaxDepth = 8
	f, err := Train(X, y, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return f, X
}

func TestStats(t *testing.T) {
	f, _ := trainSmallForest(t, 12, 300, 3)
	s := f.Stats()
	if s.Trees != 12 {
		t.Fatalf("Trees = %d, want 12", s.Trees)
	}
	wantNodes := 0
	for i := range f.trees {
		wantNodes += len(f.trees[i].nodes)
	}
	if s.Nodes != wantNodes {
		t.Fatalf("Nodes = %d, want %d", s.Nodes, wantNodes)
	}
	if s.MaxDepth < 1 || s.MaxDepth > f.cfg.MaxDepth {
		t.Fatalf("MaxDepth = %d, want in [1, %d]", s.MaxDepth, f.cfg.MaxDepth)
	}
}

func TestStatsSingleLeaf(t *testing.T) {
	// Constant targets collapse every tree to one pure leaf: depth 0.
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	cfg := DefaultConfig()
	cfg.NEstimators = 3
	f, err := Train(X, y, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	s := f.Stats()
	if s.Trees != 3 || s.Nodes != 3 || s.MaxDepth != 0 {
		t.Fatalf("Stats = %+v, want {3 3 0}", s)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f, X := trainSmallForest(t, 10, 400, 4)
	fl := f.Flatten()
	g, err := FromFlat(fl)
	if err != nil {
		t.Fatalf("FromFlat: %v", err)
	}
	// Bit-identical predictions on every training row plus fresh points.
	rng := xrand.New(99)
	probes := append([][]float64{}, X...)
	for i := 0; i < 64; i++ {
		row := make([]float64, 4)
		for j := range row {
			row[j] = rng.Float64()*6 - 3
		}
		probes = append(probes, row)
	}
	for i, row := range probes {
		a, err := f.Predict(row)
		if err != nil {
			t.Fatalf("orig predict %d: %v", i, err)
		}
		b, err := g.Predict(row)
		if err != nil {
			t.Fatalf("restored predict %d: %v", i, err)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("row %d: predictions differ: %v vs %v", i, a, b)
		}
	}
	// Re-flattening the restored forest reproduces the arrays exactly.
	if !reflect.DeepEqual(fl, g.Flatten()) {
		t.Fatal("re-flattened forest differs from original Flat")
	}
	// Feature importance survives too (gain arrays round-trip).
	if !reflect.DeepEqual(f.FeatureImportance(), g.FeatureImportance()) {
		t.Fatal("feature importance differs after round trip")
	}
}

func TestSetWorkers(t *testing.T) {
	f, X := trainSmallForest(t, 4, 120, 2)
	want, err := f.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	f.SetWorkers(3)
	if f.Config().Workers != 3 {
		t.Fatalf("Workers = %d after SetWorkers(3)", f.Config().Workers)
	}
	got, err := f.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("row %d changed after SetWorkers", i)
		}
	}
}

// TestFromFlatRejectsHostile mutates a valid Flat one invariant at a time;
// every mutation must be rejected, never panic.
func TestFromFlatRejectsHostile(t *testing.T) {
	fresh := func(t *testing.T) *Flat {
		f, _ := trainSmallForest(t, 3, 200, 3)
		return f.Flatten()
	}
	cases := []struct {
		name   string
		mutate func(*Flat)
		want   string
	}{
		{"zero dims", func(fl *Flat) { fl.Dims = 0 }, "input dims"},
		{"bad config", func(fl *Flat) { fl.Cfg.MaxDepth = 0 }, "config"},
		{"tree count mismatch", func(fl *Flat) { fl.TreeNodes = fl.TreeNodes[:2] }, "trees"},
		{"empty tree", func(fl *Flat) {
			fl.TreeNodes[2] += fl.TreeNodes[0]
			fl.TreeNodes[0] = 0
		}, "nodes"},
		{"short value array", func(fl *Flat) { fl.Value = fl.Value[:1] }, "value array"},
		{"short gain array", func(fl *Flat) { fl.Gain = fl.Gain[:0] }, "gain array"},
		{"feature out of range", func(fl *Flat) { firstSplit(fl, func(i int) { fl.Feature[i] = 99 }) }, "feature"},
		{"feature below -1", func(fl *Flat) { firstSplit(fl, func(i int) { fl.Feature[i] = -7 }) }, "feature"},
		{"self-loop child", func(fl *Flat) { firstSplit(fl, func(i int) { fl.Left[i] = int32(i) }) }, "children"},
		{"backward child", func(fl *Flat) { firstSplit(fl, func(i int) { fl.Right[i] = 0 }) }, "children"},
		{"child past end", func(fl *Flat) { firstSplit(fl, func(i int) { fl.Left[i] = fl.TreeNodes[0] }) }, "children"},
		{"negative child", func(fl *Flat) { firstSplit(fl, func(i int) { fl.Right[i] = -1 }) }, "children"},
		{"NaN threshold", func(fl *Flat) { fl.Thresh[0] = math.NaN() }, "non-finite"},
		{"Inf value", func(fl *Flat) { fl.Value[0] = math.Inf(1) }, "non-finite"},
		{"negative gain", func(fl *Flat) { fl.Gain[0] = -1 }, "non-finite"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fl := fresh(t)
			c.mutate(fl)
			_, err := FromFlat(fl)
			if err == nil {
				t.Fatal("hostile Flat accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// firstSplit applies fn to the index of the first split node of tree 0.
func firstSplit(fl *Flat, fn func(i int)) {
	for i := 0; i < int(fl.TreeNodes[0]); i++ {
		if fl.Feature[i] >= 0 {
			fn(i)
			return
		}
	}
	panic("no split node in tree 0")
}
