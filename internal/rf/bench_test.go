package rf

import (
	"fmt"
	"runtime"
	"testing"
)

// workerVariants benchmarks the serial engine against the all-core pool;
// on a single-core host the two coincide and only the algorithmic gains
// (sorted-sweep splits, scratch reuse) show.
func workerVariants() []int { return []int{1, 0} }

func workerName(w int) string {
	if w == 0 {
		return fmt.Sprintf("workers=all(%d)", runtime.GOMAXPROCS(0))
	}
	return fmt.Sprintf("workers=%d", w)
}

func BenchmarkTrain(b *testing.B) {
	X, y := synthData(2000, 1, 0.1)
	for _, w := range workerVariants() {
		b.Run(workerName(w), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NEstimators = 20
			cfg.Workers = w
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Train(X, y, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainTied grows serial 32-tree forests on the tie-heavy
// training matrix (see tiedData), where the split search's sort dominates.
func BenchmarkTrainTied(b *testing.B) {
	X, y := tiedData(b)
	for _, mf := range []MaxFeatures{MaxFeaturesAuto, MaxFeaturesSqrt} {
		b.Run(mf.String(), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NEstimators = 32
			cfg.MaxFeatures = mf
			cfg.Workers = 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Train(X, y, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCrossValidate(b *testing.B) {
	X, y := synthData(1200, 1, 0.1)
	for _, w := range workerVariants() {
		b.Run(workerName(w), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NEstimators = 10
			cfg.Workers = w
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := CrossValidate(X, y, cfg, 3, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPredictBatch(b *testing.B) {
	X, y := synthData(1000, 1, 0.1)
	cfg := DefaultConfig()
	cfg.NEstimators = 100
	f, err := Train(X, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	probes, _ := synthData(512, 2, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.PredictBatch(probes); err != nil {
			b.Fatal(err)
		}
	}
}
