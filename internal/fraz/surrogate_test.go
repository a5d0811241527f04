package fraz

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/field"
)

// surrogateCase turns the truth about a codec on a field — the ratio a real
// compression delivers at an absolute bound — into an Options.Surrogate.
type surrogateCase struct {
	name string
	wrap func(truth func(eb float64) float64) func(eb float64) (float64, error)
}

func scaled(k float64) func(func(float64) float64) func(float64) (float64, error) {
	return func(truth func(float64) float64) func(float64) (float64, error) {
		return func(eb float64) (float64, error) { return k * truth(eb), nil }
	}
}

func always(v float64) func(func(float64) float64) func(float64) (float64, error) {
	return func(func(float64) float64) func(float64) (float64, error) {
		return func(float64) (float64, error) { return v, nil }
	}
}

// surrogateCases are the surrogates every search property is checked under:
// none, an exact one, biased ones, and ones that are no help at all.
var surrogateCases = []surrogateCase{
	{"none", nil},
	{"exact", scaled(1)},
	{"half", scaled(0.5)},
	{"double", scaled(2)},
	{"constant", always(7)},
	{"nan", always(math.NaN())},
	{"zero", always(0)},
	{"inf", always(math.Inf(1))},
	{"fails on the third call", func(truth func(float64) float64) func(float64) (float64, error) {
		calls := 0
		return func(eb float64) (float64, error) {
			if calls++; calls == 3 {
				return 0, errors.New("surrogate: injected failure")
			}
			return truth(eb), nil
		}
	}},
}

// searchChecked runs the search under sc and holds it to what every search
// owes: at most maxRuns real runs, the best probe returned, no bound probed
// twice, every probe inside the bracket of the probes before it — and, next
// to the plain search on the same input, at most two more runs and a result
// inside the band whenever the plain one's is.
func searchChecked(t *testing.T, codec compressor.Codec, f *field.Field, target, seed float64, sc surrogateCase) Result {
	t.Helper()
	opts := Options{Seed: seed}
	if sc.wrap != nil {
		opts.Surrogate = sc.wrap(func(eb float64) float64 {
			stream, err := codec.Compress(f, eb)
			if err != nil {
				t.Fatal(err)
			}
			return compressor.Ratio(f, stream)
		})
	}
	res, err := Search(codec, f, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	where := func() string { return sc.name + " surrogate, " + codec.Name() }
	if res.Runs < 1 || res.Runs > maxRuns || res.Runs != len(res.Probes) || res.SurrogateEvals > maxSurrogateEvals {
		t.Fatalf("%s target %g seed %g: %d runs, %d probes, %d surrogate evaluations", where(), target, seed, res.Runs, len(res.Probes), res.SurrogateEvals)
	}
	if sc.wrap == nil && (res.SurrogateEvals != 0 || res.SurrogateDropped) {
		t.Fatalf("%s: %d surrogate evaluations, dropped %v", where(), res.SurrogateEvals, res.SurrogateDropped)
	}
	best := res.Probes[0]
	var lo, hi float64 // the bracket as the probes so far leave it; 0 = open
	for i, p := range res.Probes {
		if math.Abs(p.Ratio/target-1) < math.Abs(best.Ratio/target-1) {
			best = p
		}
		if lo > 0 && p.RelEB <= lo || hi > 0 && p.RelEB >= hi {
			t.Fatalf("%s target %g seed %g: probe %d at %g is outside the bracket (%g, %g): %v", where(), target, seed, i, p.RelEB, lo, hi, res.Probes)
		}
		if p.Ratio < target {
			lo = p.RelEB
		} else {
			hi = p.RelEB
		}
	}
	if res.RelEB != best.RelEB || res.Achieved != best.Ratio || len(res.Stream) == 0 {
		t.Fatalf("%s target %g seed %g: returned %g@%g, best probe %v", where(), target, seed, res.Achieved, res.RelEB, best)
	}
	if res.Converged != (math.Abs(res.Achieved/target-1) <= tolerance) {
		t.Fatalf("%s target %g: converged %v with %g", where(), target, res.Converged, res.Achieved)
	}
	plain, err := Search(codec, f, target, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs > plain.Runs+2 || plain.Converged && !res.Converged {
		t.Fatalf("%s target %g seed %g: %d runs, converged %v (%v); the plain search: %d runs, converged %v (%v)",
			where(), target, seed, res.Runs, res.Converged, res.Probes, plain.Runs, plain.Converged, plain.Probes)
	}
	return res
}

// TestPlainSearchMatchesReference: without a surrogate the search is the
// pre-refactor loop probe for probe — same relative bounds, same ratios, so
// the same absolute bounds reached the codec.
func TestPlainSearchMatchesReference(t *testing.T) {
	f := testField(t)
	cs := []compressor.Codec{realCodec(t, "szx"), realCodec(t, "zfp"), realCodec(t, "sz3"), curveCodec{staircase}, curveCodec{wavy}}
	for _, codec := range cs {
		for _, target := range []float64{1.0000001, 2.5, 4, 9, 30, 1e9} {
			for _, seed := range []float64{0, 1e-5, 2e-3, 0.05, relLo, relHi} {
				want, err := refSearch(codec, f, target, Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				got, err := Search(codec, f, target, Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Probes) != len(want.Probes) || got.RelEB != want.RelEB || got.Converged != want.Converged || got.Seeded != want.Seeded {
					t.Fatalf("%s target %g seed %g: probes %v, reference %v", codec.Name(), target, seed, got.Probes, want.Probes)
				}
				for i := range want.Probes {
					if got.Probes[i] != want.Probes[i] {
						t.Fatalf("%s target %g seed %g: probe %d is %v, reference %v", codec.Name(), target, seed, i, got.Probes[i], want.Probes[i])
					}
				}
			}
		}
	}
}

// validationFields regenerates the benchmark's eight validation fields
// (bench/data.go validationSpecs; bench/ cannot be imported).
func validationFields(t testing.TB) []*field.Field {
	t.Helper()
	var out []*field.Field
	for _, s := range []struct {
		dataset, field string
		step           int
	}{
		{"miranda", "density", 0}, {"miranda", "velocityx", 0},
		{"nyx", "baryon_density", 6}, {"nyx", "temperature", 6},
		{"hurricane", "P", 36}, {"hurricane", "U", 36}, {"hurricane", "QCLOUD", 36}, {"hurricane", "QVAPOR", 36},
	} {
		f, err := dataset.Generate(s.dataset, s.field, dataset.Options{Nx: 64, Ny: 64, Nz: 64, TimeStep: s.step})
		if err != nil {
			t.Fatal(err)
		}
		f.Name = s.dataset + "/" + s.field
		out = append(out, f)
	}
	return out
}

// TestSurrogateSearchOnValidationFields is the served search on the served
// inputs: the real codecs with their SECRE search surrogate, the benchmark's
// validation fields and targets, seeded as by a model and unseeded. SZx
// compresses once; ZFP compresses once where the target is on a stair and
// at most four times around the jump where it is not, and then ends no
// farther from the target than the plain search's best probe.
func TestSurrogateSearchOnValidationFields(t *testing.T) {
	if testing.Short() {
		t.Skip("72 searches on 64^3 fields")
	}
	fields := validationFields(t)
	for name, c := range map[string]struct {
		targets  []float64
		meanRuns float64
	}{
		"szx": {[]float64{10, 25, 50}, 1.25},
		"zfp": {[]float64{3, 4, 5}, 2.0},
	} {
		codec := realCodec(t, name)
		for _, seed := range []float64{0.05, 0} {
			runs, searches := 0, 0
			for _, f := range fields {
				for _, target := range c.targets {
					sur := codecs.SearchSurrogate(name, f)
					if sur == nil {
						t.Fatalf("no search surrogate for %s", name)
					}
					res, err := Search(codec, f, target, Options{Seed: seed, Surrogate: sur})
					if err != nil {
						t.Fatal(err)
					}
					runs += res.Runs
					searches++
					if res.Converged || name != "zfp" {
						continue
					}
					plain, err := Search(codec, f, target, Options{Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					if res.Runs > 4 || math.Abs(res.Achieved/target-1) > math.Abs(plain.Achieved/target-1) {
						t.Errorf("zfp %s target %g seed %g: %d runs for %g; the plain search: %d runs for %g",
							f.Name, target, seed, res.Runs, res.Achieved, plain.Runs, plain.Achieved)
					}
				}
			}
			if mean := float64(runs) / float64(searches); mean > c.meanRuns {
				t.Errorf("%s seed %g: %.3f compressor runs per search, want <= %g", name, seed, mean, c.meanRuns)
			}
		}
	}
}

// BenchmarkSearchSeededSZx is the served SZx search on a 64^3 field from a
// model-like seed: on real probes alone, and with the search surrogate
// (bound to the field inside the loop, as a request pays for it).
func BenchmarkSearchSeededSZx(b *testing.B) {
	f, err := dataset.Generate("hurricane", "U", dataset.Options{Nx: 64, Ny: 64, Nz: 64, TimeStep: 36})
	if err != nil {
		b.Fatal(err)
	}
	codec, err := codecs.ByName("szx")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"probes", "surrogate"} {
		for _, target := range []float64{10, 25, 50} {
			b.Run(fmt.Sprintf("%s/ratio%g", mode, target), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opts := Options{Seed: 0.05}
					if mode == "surrogate" {
						opts.Surrogate = codecs.SearchSurrogate("szx", f)
					}
					if _, err := Search(codec, f, target, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestSurrogateBudgetAndConstantField: a spent evaluation budget reads as
// "no answer" without calling the surrogate, and a constant field (value
// range 0, so relative bounds are absolute) searches with and without one.
func TestSurrogateBudgetAndConstantField(t *testing.T) {
	res := Result{SurrogateEvals: maxSurrogateEvals}
	s := surrogate{func(float64) (float64, error) { t.Fatal("called past the budget"); return 0, nil }, 10, 1, 1, &res}
	if _, ok := s.estimate(1e-3); ok || res.SurrogateEvals != maxSurrogateEvals {
		t.Fatalf("estimate past the budget: ok %v, %d evaluations", ok, res.SurrogateEvals)
	}
	flat := field.New("flat", 16, 16, 4)
	for i := range flat.Data {
		flat.Data[i] = 3
	}
	codec := curveCodec{func(rel float64) float64 { return 2 * math.Exp(0.5*math.Log(rel/relLo)) }}
	for _, sc := range surrogateCases {
		if res := searchChecked(t, codec, flat, 40, 0, sc); !res.Converged {
			t.Errorf("%s surrogate on a constant field: missed in %d runs: %v", sc.name, res.Runs, res.Probes)
		}
	}
}
