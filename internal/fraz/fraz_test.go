package fraz

import (
	"errors"
	"math"
	"testing"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/safedec"
)

func testField(t *testing.T) *field.Field {
	t.Helper()
	f, err := dataset.Generate("miranda", "viscosity", dataset.Options{Nx: 32, Ny: 32, Nz: 16})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func realCodec(t *testing.T, name string) compressor.Codec {
	t.Helper()
	codec, err := codecs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return codec
}

// ratioAt is the ratio the codec delivers at a relative bound: a target
// the search can reach.
func ratioAt(t *testing.T, codec compressor.Codec, f *field.Field, rel float64) float64 {
	t.Helper()
	stream, err := codec.Compress(f, compressor.AbsBound(f, rel))
	if err != nil {
		t.Fatal(err)
	}
	return compressor.Ratio(f, stream)
}

// curveCodec is a fake whose ratio is a chosen function of the relative
// bound; its streams are zero bytes of the matching length.
type curveCodec struct {
	ratio func(rel float64) float64
}

func (curveCodec) Name() string { return "curve" }

func (c curveCodec) Compress(f *field.Field, eb float64) ([]byte, error) {
	valueRange := f.ValueRange()
	if valueRange <= 0 {
		valueRange = 1 // compressor.AbsBound's rule for a constant field
	}
	n := int(float64(f.SizeBytes()) / c.ratio(eb/valueRange))
	return make([]byte, max(n, 1)), nil
}

func (curveCodec) Decompress([]byte) (*field.Field, error) {
	return nil, errors.New("curve: no decoder")
}

func (curveCodec) DecompressLimited([]byte, safedec.Limits) (*field.Field, error) {
	return nil, errors.New("curve: no decoder")
}

// staircase jumps by 15 % in ratio at every doubling of the bound, like
// ZFP's fixed-accuracy mode.
func staircase(rel float64) float64 {
	return 2 * math.Pow(1.15, math.Floor(math.Log2(rel/relLo)))
}

// wavy rises overall (slope 0.5) but dips locally: up to 12 % below its
// own trend and not monotone.
func wavy(rel float64) float64 {
	x := math.Log(rel / relLo)
	return 2 * math.Exp(0.5*x+0.12*math.Sin(9*x))
}

func TestSearchConverges(t *testing.T) {
	f := testField(t)
	for _, name := range []string{"szx", "sz3"} {
		codec := realCodec(t, name)
		target := ratioAt(t, codec, f, 3e-3)
		res, err := Search(codec, f, target, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged || res.Seeded {
			t.Fatalf("%s: converged %v seeded %v (achieved %g for %g in %d runs)",
				name, res.Converged, res.Seeded, res.Achieved, target, res.Runs)
		}
		if miss := math.Abs(res.Achieved/target - 1); miss > tolerance {
			t.Fatalf("%s: achieved %g for target %g", name, res.Achieved, target)
		}
		if res.Runs != len(res.Probes) || res.Probes[res.Runs-1] != (Probe{res.RelEB, res.Achieved}) {
			t.Fatalf("%s: %d runs, probes %v, chose %g", name, res.Runs, res.Probes, res.RelEB)
		}
		// The returned stream must be valid.
		if _, err := codec.Decompress(res.Stream); err != nil {
			t.Fatalf("%s: returned stream invalid: %v", name, err)
		}
	}
}

// TestSeedCutsRuns: a perfect prediction costs one compression, and no
// prediction, however wrong, costs convergence.
func TestSeedCutsRuns(t *testing.T) {
	f := testField(t)
	for _, name := range []string{"szx", "zfp", "sz3"} {
		codec := realCodec(t, name)
		target := ratioAt(t, codec, f, 2e-3)
		plain, err := Search(codec, f, target, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !plain.Converged {
			t.Fatalf("%s: unseeded search missed a reachable target: %+v", name, plain.Probes)
		}
		exact, err := Search(codec, f, target, Options{Seed: plain.RelEB})
		if err != nil {
			t.Fatal(err)
		}
		if exact.Runs != 1 || !exact.Converged || !exact.Seeded || exact.RelEB != plain.RelEB {
			t.Fatalf("%s: seed = answer took %d runs, chose %g (want %g)", name, exact.Runs, exact.RelEB, plain.RelEB)
		}
		for _, seed := range []float64{plain.RelEB / 100, plain.RelEB / 3, plain.RelEB * 3, plain.RelEB * 100, relLo, relHi} {
			res, err := Search(codec, f, target, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged || res.Runs > maxRuns {
				t.Errorf("%s seed %g: converged %v in %d runs: %v", name, seed, res.Converged, res.Runs, res.Probes)
			}
		}
	}
}

// TestHigherTargetNeverLowersBound is the metamorphic check: asking for
// more compression never selects a tighter bound — whatever surrogate, if
// any, the search is given.
func TestHigherTargetNeverLowersBound(t *testing.T) {
	f := testField(t)
	for _, name := range []string{"szx", "sz3"} {
		codec := realCodec(t, name)
		for _, sc := range surrogateCases {
			prev := 0.0
			for _, rel := range []float64{1e-4, 1e-3, 1e-2, 1e-1} {
				res := searchChecked(t, codec, f, ratioAt(t, codec, f, rel), 0, sc)
				if res.RelEB < prev {
					t.Fatalf("%s/%s: target at rel %g chose %g, below the previous target's %g", name, sc.name, rel, res.RelEB, prev)
				}
				prev = res.RelEB
			}
		}
	}
}

func TestUnreachableTargetClamps(t *testing.T) {
	f := testField(t)
	// SZ3 is left out: at rel 1e-6 its stream is larger than the field, so
	// a ratio just above 1 is within its reach.
	for _, name := range []string{"szx", "zfp"} {
		codec := realCodec(t, name)
		for _, sc := range surrogateCases {
			for _, seed := range []float64{0, 1e-3} {
				for target, endpoint := range map[float64]float64{1e9: relHi, 1.0000001: relLo} {
					res := searchChecked(t, codec, f, target, seed, sc)
					if res.Converged {
						t.Fatalf("%s/%s: impossible target %g reported converged", name, sc.name, target)
					}
					if res.RelEB != endpoint || res.Runs > 3 {
						t.Fatalf("%s/%s seed %g: target %g chose %g in %d runs, want %g in <= 3",
							name, sc.name, seed, target, res.RelEB, res.Runs, endpoint)
					}
					if _, err := codec.Decompress(res.Stream); err != nil {
						t.Fatalf("%s: endpoint stream invalid: %v", name, err)
					}
				}
			}
		}
	}
}

func TestSearchValidation(t *testing.T) {
	codec := realCodec(t, "szx")
	if _, err := Search(codec, testField(t), 0, Options{}); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := Search(codec, nil, 10, Options{}); err == nil {
		t.Fatal("nil field accepted")
	}
}

// TestBadSeedsIgnored: a seed that is no bound at all leaves the search
// exactly as it is without one; one outside the interval starts on the
// nearer endpoint.
func TestBadSeedsIgnored(t *testing.T) {
	f := testField(t)
	codec := curveCodec{wavy}
	plain, err := Search(codec, f, 40, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1e-3} {
		res, err := Search(codec, f, 40, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Seeded || res.Resolver() != ResolverSearch || res.RelEB != plain.RelEB || res.Runs != plain.Runs {
			t.Errorf("seed %g: seeded %v, chose %g in %d runs; unseeded chose %g in %d",
				seed, res.Seeded, res.RelEB, res.Runs, plain.RelEB, plain.Runs)
		}
	}
	for seed, first := range map[float64]float64{1e-12: relLo, 1e300: relHi} {
		res, err := Search(codec, f, 40, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Seeded || res.Resolver() != ResolverModel || res.Probes[0].RelEB != first || !res.Converged {
			t.Errorf("seed %g: seeded %v, probes %v, converged %v", seed, res.Seeded, res.Probes, res.Converged)
		}
	}
}

// TestMaxItersRespected drives the search over curves it cannot model — a
// staircase whose stairs straddle the band, and a locally non-monotone
// one — from seeds far off and on the endpoints: it must stop inside the
// cap and hand back the closest probe it made.
func TestMaxItersRespected(t *testing.T) {
	f := testField(t)
	curves := map[string]func(float64) float64{"staircase": staircase, "wavy": wavy}
	for name, curve := range curves {
		codec := curveCodec{curve}
		for _, sc := range surrogateCases {
			for _, at := range []float64{3e-5, 2e-3, 0.11} {
				// Between two stairs on the staircase; reachable on the wavy curve.
				target := curve(at) * 1.07
				for _, seed := range []float64{0, at, at / 100, at * 100, relLo, relHi} {
					res := searchChecked(t, codec, f, target, seed, sc)
					if name == "staircase" && (res.Converged || res.Runs > 12) {
						t.Errorf("staircase/%s target %g seed %g: converged %v in %d runs; a jump should stop the search early",
							sc.name, target, seed, res.Converged, res.Runs)
					}
					if name == "wavy" && !res.Converged {
						t.Errorf("wavy/%s target %g seed %g: missed in %d runs: %v", sc.name, target, seed, res.Runs, res.Probes)
					}
				}
			}
		}
	}
}

// TestSearchRecordsMetrics checks that a successful search advances the
// obs.Default run histogram of its resolver, the miss histogram and the
// convergence counters — and, given a surrogate, the evaluation histogram
// and (for one it has to give up on) the drop counter.
func TestSearchRecordsMetrics(t *testing.T) {
	f := testField(t)
	codec := realCodec(t, "szx")
	exact, broken := surrogateCases[1], surrogateCases[5]
	for _, c := range []struct {
		seed      float64
		surrogate *surrogateCase
	}{{0, nil}, {1e-3, nil}, {1e-3, &exact}, {0, &broken}} {
		opts := Options{Seed: c.seed}
		if c.surrogate != nil {
			opts.Surrogate = c.surrogate.wrap(func(eb float64) float64 { return ratioAt(t, codec, f, eb/f.ValueRange()) })
		}
		resolver := Result{Seeded: opts.Seed > 0}.Resolver()
		runsBefore := searchRuns[resolver].Count()
		missBefore := ratioMiss.Count()
		totalBefore := searchRunsTotal.Value()
		convBefore := searchConverged.Value() + searchDiverged.Value()
		evalsBefore, droppedBefore := surrogateEvals.Count(), surrogateDropped.Value()
		res, err := Search(codec, f, 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := searchRuns[resolver].Count(); got != runsBefore+1 {
			t.Fatalf("%s: searchRuns count %d, want %d", resolver, got, runsBefore+1)
		}
		if got := ratioMiss.Count(); got != missBefore+1 {
			t.Fatalf("%s: ratioMiss count %d, want %d", resolver, got, missBefore+1)
		}
		if got := searchRunsTotal.Value(); got != totalBefore+int64(res.Runs) {
			t.Fatalf("compressor runs counter %d, want %d", got, totalBefore+int64(res.Runs))
		}
		if got := searchConverged.Value() + searchDiverged.Value(); got != convBefore+1 {
			t.Fatalf("convergence counters %d, want %d", got, convBefore+1)
		}
		if probeSeconds.Count() < int64(res.Runs) {
			t.Fatalf("probe latency count %d < runs %d", probeSeconds.Count(), res.Runs)
		}
		wantEvals, wantDropped := evalsBefore, droppedBefore
		if c.surrogate != nil {
			wantEvals++
		}
		if c.surrogate == &broken {
			wantDropped++
		}
		if surrogateEvals.Count() != wantEvals || surrogateDropped.Value() != wantDropped || res.SurrogateDropped != (c.surrogate == &broken) {
			t.Fatalf("surrogate %v: evaluation histogram count %d (want %d), dropped %d (want %d), Result.SurrogateDropped %v",
				c.surrogate, surrogateEvals.Count(), wantEvals, surrogateDropped.Value(), wantDropped, res.SurrogateDropped)
		}
	}
}
