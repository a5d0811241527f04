package selector

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/obs"
	"carol/internal/xrand"
)

// --- synthetic field grid -------------------------------------------------

func smoothGrid(name string, nx, ny, nz int, seed uint64) *field.Field {
	n := xrand.NewNoise(seed)
	f := field.New(name, nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				f.Set(x, y, z, float32(10*n.FBm(float64(x)/16, float64(y)/16, float64(z)/16, 3, 0.5)))
			}
		}
	}
	return f
}

func noisyGrid(name string, nx, ny, nz int, seed uint64) *field.Field {
	src := xrand.New(seed)
	f := field.New(name, nx, ny, nz)
	for i := range f.Data {
		f.Data[i] = float32(src.Norm() * 3)
	}
	return f
}

func constantGrid(name string, nx, ny, nz int) *field.Field {
	f := field.New(name, nx, ny, nz)
	for i := range f.Data {
		f.Data[i] = 42.5
	}
	return f
}

type gridCase struct {
	name string
	f    *field.Field
}

// conformanceGrid is the smooth/noisy/constant × 1D/2D/3D grid the issue
// asks for. Sizes stay small enough for a full static-codec sweep per case.
func conformanceGrid() []gridCase {
	return []gridCase{
		{"smooth-1d", smoothGrid("s1", 512, 1, 1, 1)},
		{"smooth-2d", smoothGrid("s2", 48, 40, 1, 2)},
		{"smooth-3d", smoothGrid("s3", 20, 18, 12, 3)},
		{"noisy-1d", noisyGrid("n1", 512, 1, 1, 4)},
		{"noisy-2d", noisyGrid("n2", 48, 40, 1, 5)},
		{"noisy-3d", noisyGrid("n3", 20, 18, 12, 6)},
		{"const-1d", constantGrid("c1", 512, 1, 1)},
		{"const-2d", constantGrid("c2", 48, 40, 1)},
		{"const-3d", constantGrid("c3", 20, 18, 12)},
	}
}

// TestSelectionConformance: over the full shape grid and an eb sweep, the
// chosen codec must (a) be a registered candidate, (b) round-trip within
// the bound, and (c) never achieve a worse ratio than the worst static
// codec would have (trivially true because the choice IS one of the static
// codecs — the assertion pins that invariant against future drift, e.g. a
// selector that post-processes streams).
func TestSelectionConformance(t *testing.T) {
	sel, err := New(Config{Seed: 7, Epsilon: -1}) // pure exploitation
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, n := range sel.Codecs() {
		known[n] = true
	}
	for _, tc := range conformanceGrid() {
		for _, rel := range []float64{1e-2, 1e-3, 1e-4} {
			eb := compressor.AbsBound(tc.f, rel)
			dec, err := sel.Select(tc.f, eb, 0)
			if err != nil {
				t.Fatalf("%s rel=%g: Select: %v", tc.name, rel, err)
			}
			if !known[dec.Codec] {
				t.Fatalf("%s rel=%g: chose unregistered codec %q", tc.name, rel, dec.Codec)
			}
			c, err := codecs.ByName(dec.Codec)
			if err != nil {
				t.Fatalf("%s: ByName(%s): %v", tc.name, dec.Codec, err)
			}
			stream, err := c.Compress(tc.f, eb)
			if err != nil {
				t.Fatalf("%s rel=%g: %s compress: %v", tc.name, rel, dec.Codec, err)
			}
			g, err := c.Decompress(stream)
			if err != nil {
				t.Fatalf("%s rel=%g: %s decompress: %v", tc.name, rel, dec.Codec, err)
			}
			if err := compressor.CheckBound(tc.f, g, eb); err != nil {
				t.Fatalf("%s rel=%g: %s bound violated: %v", tc.name, rel, dec.Codec, err)
			}
			achieved := compressor.Ratio(tc.f, stream)
			sel.Observe(dec, achieved)

			worst := math.Inf(1)
			for _, name := range sel.Codecs() {
				sc, err := codecs.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				ss, err := sc.Compress(tc.f, eb)
				if err != nil {
					continue // a static codec failing only shrinks the comparison set
				}
				if r := compressor.Ratio(tc.f, ss); r < worst {
					worst = r
				}
			}
			if achieved < worst-1e-9 {
				t.Errorf("%s rel=%g: chosen %s achieved %.3f, below worst static %.3f",
					tc.name, rel, dec.Codec, achieved, worst)
			}
		}
	}
}

// TestDeterministicUnderSeed: two selectors with the same seed fed the same
// request sequence (including exploration draws and observations) must
// produce identical decision streams.
func TestDeterministicUnderSeed(t *testing.T) {
	build := func() *Selector {
		s, err := New(Config{Seed: 99, Epsilon: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := build(), build()
	grid := conformanceGrid()
	type pick struct {
		codec    string
		explored bool
	}
	run := func(s *Selector) []pick {
		var out []pick
		for round := 0; round < 4; round++ {
			for _, tc := range grid {
				eb := compressor.AbsBound(tc.f, 1e-3)
				d, err := s.Select(tc.f, eb, 0)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, pick{d.Codec, d.Explored})
				// Feed a deterministic synthetic outcome so bias state also
				// evolves identically.
				s.Observe(d, 4+float64(round))
			}
		}
		return out
	}
	pa, pb := run(a), run(b)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("decision %d diverged under same seed: %+v vs %+v", i, pa[i], pb[i])
		}
	}
}

// --- injected-estimator tests --------------------------------------------

type fixedEst struct {
	name  string
	ratio float64
	err   error
}

func (e fixedEst) Name() string { return e.name }

func (e fixedEst) EstimateRatio(f *field.Field, eb float64) (float64, error) {
	return e.ratio, e.err
}

func twoCodecSelector(t *testing.T, ratioSZx, ratioZFP float64) *Selector {
	t.Helper()
	s, err := New(Config{
		Codecs:  []string{"szx", "zfp"},
		Seed:    1,
		Epsilon: -1,
		Estimators: map[string]compressor.Estimator{
			"szx": fixedEst{name: "szx", ratio: ratioSZx},
			"zfp": fixedEst{name: "zfp", ratio: ratioZFP},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMispredictionShiftsSelection is the closed-loop acceptance test: szx's
// surrogate overpromises (predicts 10, real outcomes land at 2), and after a
// few observed outcomes the bias correction must move selection to zfp,
// whose honest 8 now wins.
func TestMispredictionShiftsSelection(t *testing.T) {
	sel := twoCodecSelector(t, 10, 8)
	f := smoothGrid("m", 64, 1, 1, 11)

	d, err := sel.Select(f, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Codec != "szx" {
		t.Fatalf("initial pick = %s, want szx (highest raw prediction)", d.Codec)
	}
	shifted := false
	for i := 0; i < 12; i++ {
		sel.Observe(d, 2) // szx actually achieves 2, not 10
		d, err = sel.Select(f, 1e-3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d.Codec == "zfp" {
			shifted = true
			break
		}
	}
	if !shifted {
		t.Fatalf("selection never shifted away from overpromising szx; stats: %+v", sel.Stats())
	}
	// The learned bias must be visible in the snapshot.
	var sawBias bool
	for _, a := range sel.Stats().Arms {
		if a.Codec == "szx" && a.BiasEMA > 1 {
			sawBias = true
		}
	}
	if !sawBias {
		t.Error("szx arm bias EMA not reflecting the observed overprediction")
	}
}

// TestTargetPicksCheapestEligible: with a ratio target, the cheapest codec
// predicted to meet it wins even when another predicts more.
func TestTargetPicksCheapestEligible(t *testing.T) {
	sel := twoCodecSelector(t, 6, 20) // szx cheaper, both eligible at target 5
	f := smoothGrid("tg", 64, 1, 1, 12)
	d, err := sel.Select(f, 1e-3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Codec != "szx" {
		t.Fatalf("target=5 pick = %s, want cheapest eligible szx", d.Codec)
	}
	// Target nobody meets: fall back to best prediction.
	d, err = sel.Select(f, 1e-3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Codec != "zfp" {
		t.Fatalf("unreachable target pick = %s, want best-prediction zfp", d.Codec)
	}
}

// TestFallbackAllEstimatorsFail: every surrogate erroring must still yield
// a valid (cheapest) codec, never a panic or an error.
func TestFallbackAllEstimatorsFail(t *testing.T) {
	s, err := New(Config{
		Codecs:  []string{"sperr", "szx"},
		Seed:    1,
		Epsilon: -1,
		Estimators: map[string]compressor.Estimator{
			"sperr": fixedEst{name: "sperr", err: errFixed},
			"szx":   fixedEst{name: "szx", err: errFixed},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := smoothGrid("fb", 64, 1, 1, 13)
	d, err := s.Select(f, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Codec != "szx" {
		t.Fatalf("all-failed fallback = %s, want cheapest szx", d.Codec)
	}
	if d.PredictedRatio() != 0 {
		t.Fatalf("fallback predicted ratio = %g, want 0", d.PredictedRatio())
	}
	// Observing a fallback decision (no usable prediction) must reject, not
	// corrupt state.
	before := s.Stats().RejectedOutcomes
	s.Observe(d, 3)
	if got := s.Stats().RejectedOutcomes - before; got != 1 {
		t.Fatalf("fallback observe rejects = %d, want 1", got)
	}
}

// TestPredictionMissHistogram: every accepted outcome lands in the chosen
// codec's selector_prediction_miss histogram as |corrected/achieved - 1|,
// a rejected one nowhere, and no last-writer-wins gauge is exported.
func TestPredictionMissHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	sel, err := New(Config{
		Codecs:     []string{"szx", "zfp"},
		Seed:       1,
		Epsilon:    -1,
		Registry:   reg,
		Estimators: map[string]compressor.Estimator{"szx": fixedEst{name: "szx", ratio: 10}, "zfp": fixedEst{name: "zfp", ratio: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sel.Select(smoothGrid("h", 64, 1, 1, 15), 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	sel.Observe(d, 8)          // miss |10/8 - 1| = 0.25
	sel.Observe(d, math.NaN()) // rejected
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`selector_prediction_miss_bucket{codec="szx",le="0.1"} 0`,
		`selector_prediction_miss_bucket{codec="szx",le="0.25"} 1`,
		`selector_prediction_miss_count{codec="szx"} 1`,
		`selector_prediction_miss_count{codec="zfp"} 0`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("exposition lacks %s:\n%s", want, text.String())
		}
	}
	if strings.Contains(text.String(), "selector_last_") {
		t.Errorf("last-value gauges still exported:\n%s", text.String())
	}
}

var errFixed = errEstimator("estimator down")

type errEstimator string

func (e errEstimator) Error() string { return string(e) }

// TestObserveRejectsNonFinite: NaN/Inf/non-positive achieved ratios must
// not move the bias state.
func TestObserveRejectsNonFinite(t *testing.T) {
	sel := twoCodecSelector(t, 10, 8)
	f := smoothGrid("nf", 64, 1, 1, 14)
	d, err := sel.Select(f, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -2} {
		sel.Observe(d, bad)
	}
	st := sel.Stats()
	if st.RejectedOutcomes != 5 {
		t.Errorf("rejected = %d, want 5", st.RejectedOutcomes)
	}
	for _, a := range st.Arms {
		if a.Outcomes != 0 {
			t.Errorf("arm %s/%s recorded %d outcomes from garbage", a.Codec, a.Bucket, a.Outcomes)
		}
	}
	// State still works afterwards.
	sel.Observe(d, 9)
	if got := sel.Stats().Arms; len(got) == 0 {
		t.Fatal("no arms after valid observe")
	}
}

// TestSelectValidation: invalid fields and targets error cleanly.
func TestSelectValidation(t *testing.T) {
	sel := twoCodecSelector(t, 10, 8)
	f := smoothGrid("v", 64, 1, 1, 15)
	if _, err := sel.Select(nil, 1e-3, 0); err == nil {
		t.Error("nil field accepted")
	}
	if _, err := sel.Select(f, 0, 0); err == nil {
		t.Error("zero eb accepted")
	}
	if _, err := sel.Select(f, math.NaN(), 0); err == nil {
		t.Error("NaN eb accepted")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := sel.Select(f, 1e-3, bad); err == nil {
			t.Errorf("target %g accepted", bad)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Codecs: []string{"szx", "szx"}}); err == nil {
		t.Error("duplicate codec accepted")
	}
	if _, err := New(Config{Codecs: []string{"nope"}}); err == nil {
		t.Error("unknown codec without injected estimator accepted")
	}
}

// TestConcurrentAutoHammer drives Select+Observe+Stats from many
// goroutines; run with -race it is the bandit-state race check the issue
// asks for.
func TestConcurrentAutoHammer(t *testing.T) {
	sel, err := New(Config{Seed: 5, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	fields := []*field.Field{
		smoothGrid("h1", 96, 1, 1, 21),
		noisyGrid("h2", 16, 12, 1, 22),
		constantGrid("h3", 16, 8, 4),
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				f := fields[(w+i)%len(fields)]
				eb := compressor.AbsBound(f, 1e-3)
				d, err := sel.Select(f, eb, 0)
				if err != nil {
					t.Error(err)
					return
				}
				sel.Observe(d, 3+float64(i%7))
				if i%10 == 0 {
					_ = sel.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	st := sel.Stats()
	if want := int64(workers * 30); st.Decisions != want {
		t.Fatalf("decisions = %d, want %d", st.Decisions, want)
	}
}

// TestStatsJSON: the /v1/selector payload shape must marshal and carry the
// fields the smoke tests grep for.
func TestStatsJSON(t *testing.T) {
	sel := twoCodecSelector(t, 10, 8)
	f := smoothGrid("j", 64, 1, 1, 31)
	d, err := sel.Select(f, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	sel.Observe(d, 7)
	raw, err := json.Marshal(sel.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"codecs", "seed", "epsilon", "decisions", "arms"} {
		if _, ok := back[key]; !ok {
			t.Errorf("stats JSON missing %q: %s", key, raw)
		}
	}
}
