package selector

import (
	"testing"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/field"
)

// warmedBanditTargetHits is how many of the 96 target cases below the
// retired ε-greedy bias bandit matched the oracle after three warm-up
// passes of Select + Observe over the twelve 64³ training fields of the
// benchmark harness (the better of the two warm-ups measured: 89 with
// targets in the warm-up, 75 without; ROADMAP recorded 90). A stateless
// pick must do no worse.
const warmedBanditTargetHits = 90

// TestStatelessPickMatchesOracle holds mode=auto to an oracle that
// compresses every candidate for real, on the benchmark's eight validation
// fields at 64³ (bench/data.go validationSpecs; bench/ cannot be imported).
// With no target the pick must be the best-ratio codec in every case. With
// a target the oracle is the cheapest codec whose real ratio meets it, or
// the best-ratio codec when none does.
func TestStatelessPickMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("compresses 40 fields at 64³ with every codec")
	}
	sel, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rels := []float64{1e-4, 1e-3, 1e-2, 5e-2}
	targets := []float64{4, 8, 16, 32}
	noTarget, withTarget, targetCases := 0, 0, 0
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
		for _, rel := range rels {
			eb := compressor.AbsBound(f, rel)
			ratios := realRatios(t, f, eb)
			best := codecs.ExtendedNames[0]
			for _, name := range codecs.ExtendedNames {
				if ratios[name] > ratios[best] {
					best = name
				}
			}
			d, err := sel.Select(f, eb, 0)
			if err != nil {
				t.Fatal(err)
			}
			if d.Codec == best {
				noTarget++
			} else {
				t.Errorf("%s/%s rel=%g: picked %s (%.2f), best is %s (%.2f)",
					s.dataset, s.field, rel, d.Codec, ratios[d.Codec], best, ratios[best])
			}
			if rel == 5e-2 {
				continue
			}
			for _, target := range targets {
				want := best
				for _, name := range codecs.ExtendedNames {
					if ratios[name] >= target && (ratios[want] < target || codecs.Cost(name) < codecs.Cost(want)) {
						want = name
					}
				}
				d, err := sel.Select(f, eb, target)
				if err != nil {
					t.Fatal(err)
				}
				targetCases++
				if d.Codec == want {
					withTarget++
				} else {
					t.Logf("%s/%s rel=%g target=%g: picked %s (%.2f), oracle %s (%.2f)",
						s.dataset, s.field, rel, target, d.Codec, ratios[d.Codec], want, ratios[want])
				}
			}
		}
	}
	t.Logf("no target: %d/32 best-ratio picks; targets: %d/%d oracle picks", noTarget, withTarget, targetCases)
	if withTarget < warmedBanditTargetHits {
		t.Errorf("targets: %d/%d oracle picks, the warmed bandit made %d", withTarget, targetCases, warmedBanditTargetHits)
	}
}

// realRatios compresses f at eb with every registered codec.
func realRatios(t *testing.T, f *field.Field, eb float64) map[string]float64 {
	t.Helper()
	out := make(map[string]float64, len(codecs.ExtendedNames))
	for _, name := range codecs.ExtendedNames {
		c, err := codecs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := c.Compress(f, eb)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = compressor.Ratio(f, stream)
	}
	return out
}
