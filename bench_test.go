// Benchmark harness: one benchmark family per timing table/figure of the
// CAROL paper's evaluation, plus ablation benches for the design choices
// called out in DESIGN.md §6. The printable, paper-formatted versions of
// the same experiments live in cmd/carolbench.
package carol

import (
	"fmt"
	"testing"

	"carol/internal/bayesopt"
	"carol/internal/calib"
	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/core"
	"carol/internal/dataset"
	"carol/internal/features"
	"carol/internal/gridsearch"
	"carol/internal/pipeline"
	"carol/internal/rf"
	"carol/internal/secre"
	"carol/internal/trainset"
	"carol/internal/xrand"
)

func benchField(b *testing.B, ds, name string, n int) *Field {
	b.Helper()
	f, err := dataset.Generate(ds, name, dataset.Options{Nx: n, Ny: n, Nz: n})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// --- Compressor throughput (context for Figure 2 / Table 4 rows) ---

func BenchmarkCompressorCompress(b *testing.B) {
	f := benchField(b, "miranda", "viscosity", 48)
	eb := compressor.AbsBound(f, 1e-3)
	for _, name := range codecs.Names {
		codec, err := codecs.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(f.SizeBytes()))
			for i := 0; i < b.N; i++ {
				if _, err := codec.Compress(f, eb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompressorDecompress(b *testing.B) {
	f := benchField(b, "miranda", "viscosity", 48)
	eb := compressor.AbsBound(f, 1e-3)
	for _, name := range codecs.Names {
		codec, err := codecs.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		stream, err := codec.Compress(f, eb)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(f.SizeBytes()))
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decompress(stream); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 2 / Table 4: full-compressor vs SECRE estimation sweeps ---

func BenchmarkTable4CollectionFull(b *testing.B) {
	f := benchField(b, "miranda", "viscosity", 40)
	bounds := trainset.GeometricBounds(1e-4, 1e-1, 10)
	for _, name := range codecs.Names {
		codec, err := codecs.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, rel := range bounds {
					if _, err := codec.Compress(f, compressor.AbsBound(f, rel)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkTable4CollectionSECRE(b *testing.B) {
	f := benchField(b, "miranda", "viscosity", 40)
	bounds := trainset.GeometricBounds(1e-4, 1e-1, 10)
	for _, name := range codecs.Names {
		sur, err := codecs.SurrogateByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, rel := range bounds {
					if _, err := sur.EstimateRatio(f, compressor.AbsBound(f, rel)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Table 5: calibration cost at 3/4/5 points (ablation 1) ---

func BenchmarkTable5Calibration(b *testing.B) {
	f := benchField(b, "miranda", "viscosity", 40)
	codec, err := codecs.ByName("sz3")
	if err != nil {
		b.Fatal(err)
	}
	sur, err := codecs.SurrogateByName("sz3")
	if err != nil {
		b.Fatal(err)
	}
	lo := compressor.AbsBound(f, 1e-3)
	hi := compressor.AbsBound(f, 1e-1)
	for _, points := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("points=%d", points), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := calib.Fit(codec, sur, f, calib.PickCalibrationBounds(lo, hi, points)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figures 6 and 9: feature extraction strategies ---

func BenchmarkFig6Features(b *testing.B) {
	f := benchField(b, "nyx", "baryon_density", 64)
	b.Run("serial-full", func(b *testing.B) {
		b.SetBytes(int64(f.SizeBytes()))
		for i := 0; i < b.N; i++ {
			features.ExtractFull(f)
		}
	})
	b.Run("serial-sampled", func(b *testing.B) {
		b.SetBytes(int64(f.SizeBytes()))
		for i := 0; i < b.N; i++ {
			features.ExtractSampled(f, 4)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.SetBytes(int64(f.SizeBytes()))
		for i := 0; i < b.N; i++ {
			features.ExtractParallel(f, features.ParallelOptions{})
		}
	})
}

func BenchmarkFig9FeaturesPerDataset(b *testing.B) {
	for _, spec := range []struct{ ds, field string }{
		{"miranda", "viscosity"}, {"nyx", "baryon_density"}, {"hcci", "temperature"},
	} {
		f := benchField(b, spec.ds, spec.field, 64)
		b.Run(spec.ds+"/fxrz", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				features.ExtractSampled(f, 4)
			}
		})
		b.Run(spec.ds+"/carol", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				features.ExtractParallel(f, features.ParallelOptions{})
			}
		})
	}
}

// --- Figure 5a: training strategies ---

func benchTrainData(b *testing.B, n int) ([][]float64, []float64) {
	b.Helper()
	rng := xrand.New(9)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, c, d := rng.Float64(), rng.Float64(), rng.Float64()
		X[i] = []float64{a, c, d, rng.Float64(), rng.Float64(), 1 + 2*rng.Float64()}
		y[i] = -3 + a - c*c + 0.5*d
	}
	return X, y
}

func BenchmarkFig5aGridSearch(b *testing.B) {
	X, y := benchTrainData(b, 1000)
	for i := 0; i < b.N; i++ {
		if _, err := gridsearch.Search(X, y, 4, 3, 1, 20, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5aBayesOpt(b *testing.B) {
	X, y := benchTrainData(b, 1000)
	for i := 0; i < b.N; i++ {
		opt := bayesopt.New(gridsearch.BOSpace(), 1)
		for it := 0; it < 4; it++ {
			v := opt.Suggest()
			cfg, err := gridsearch.ConfigFromValues(v, 1)
			if err != nil {
				b.Fatal(err)
			}
			cfg.NEstimators = 20
			score, err := rf.CrossValidate(X, y, cfg, 3, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := opt.Observe(v, score); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig5aBayesOptCheckpointed(b *testing.B) {
	X, y := benchTrainData(b, 1000)
	// Pre-trained checkpoint outside the timed region.
	warm := bayesopt.New(gridsearch.BOSpace(), 1)
	for it := 0; it < 6; it++ {
		v := warm.Suggest()
		cfg, err := gridsearch.ConfigFromValues(v, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg.NEstimators = 20
		score, err := rf.CrossValidate(X, y, cfg, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := warm.Observe(v, score); err != nil {
			b.Fatal(err)
		}
	}
	ckpt := warm.Observations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := bayesopt.New(gridsearch.BOSpace(), 2)
		if err := opt.Restore(ckpt); err != nil {
			b.Fatal(err)
		}
		for it := 0; it < 2; it++ {
			v := opt.Suggest()
			cfg, err := gridsearch.ConfigFromValues(v, 1)
			if err != nil {
				b.Fatal(err)
			}
			cfg.NEstimators = 20
			score, err := rf.CrossValidate(X, y, cfg, 3, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := opt.Observe(v, score); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 8: end-to-end setup, FXRZ vs CAROL ---

func setupFields(b *testing.B) []*Field {
	b.Helper()
	var out []*Field
	for _, name := range []string{"density", "pressure", "viscosity"} {
		out = append(out, benchField(b, "miranda", name, 32))
	}
	return out
}

func BenchmarkFig8SetupFXRZ(b *testing.B) {
	fields := setupFields(b)
	bounds := trainset.GeometricBounds(1e-4, 1e-1, 8)
	codec, err := codecs.ByName("sz3")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		fw := core.NewFXRZ(codec, core.Config{ErrorBounds: bounds, BOIterations: 4, ForestCap: 10, Seed: 1})
		if _, err := fw.Collect(fields); err != nil {
			b.Fatal(err)
		}
		if _, err := fw.Train(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8SetupCAROL(b *testing.B) {
	fields := setupFields(b)
	bounds := trainset.GeometricBounds(1e-4, 1e-1, 8)
	for i := 0; i < b.N; i++ {
		fw, err := core.New("sz3", core.Config{ErrorBounds: bounds, BOIterations: 4, ForestCap: 10, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fw.Collect(fields); err != nil {
			b.Fatal(err)
		}
		if _, err := fw.Train(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Prediction latency (Figure 9's end-to-end counterpart) ---

func BenchmarkPredictErrorBound(b *testing.B) {
	fields := setupFields(b)
	fw, err := core.New("szx", core.Config{
		ErrorBounds:  trainset.GeometricBounds(1e-4, 1e-1, 8),
		BOIterations: 4, ForestCap: 10, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fw.Collect(fields); err != nil {
		b.Fatal(err)
	}
	if _, err := fw.Train(); err != nil {
		b.Fatal(err)
	}
	test := benchField(b, "miranda", "velocityx", 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.PredictErrorBound(test, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation 2: surrogate sampling aggressiveness ---

func BenchmarkAblationSamplingSZ3Stride(b *testing.B) {
	f := benchField(b, "miranda", "viscosity", 48)
	eb := compressor.AbsBound(f, 1e-2)
	for _, stride := range []int{2, 5, 8} {
		est, err := secre.New("sz3", secre.Options{SZ3Stride: stride})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("stride=%d", stride), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := est.EstimateRatio(f, eb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation 3: BO exploration parameter ---

func BenchmarkAblationBOXi(b *testing.B) {
	X, y := benchTrainData(b, 400)
	for _, xi := range []float64{0.001, 0.01, 0.1} {
		b.Run(fmt.Sprintf("xi=%g", xi), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := bayesopt.New(gridsearch.BOSpace(), 1)
				opt.Xi = xi
				for it := 0; it < 6; it++ {
					v := opt.Suggest()
					cfg, err := gridsearch.ConfigFromValues(v, 1)
					if err != nil {
						b.Fatal(err)
					}
					cfg.NEstimators = 10
					score, err := rf.CrossValidate(X, y, cfg, 3, 1)
					if err != nil {
						b.Fatal(err)
					}
					if err := opt.Observe(v, score); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Ablation 4: forest size vs prediction cost ---

func BenchmarkAblationForestSize(b *testing.B) {
	X, y := benchTrainData(b, 500)
	for _, trees := range []int{10, 50, 200} {
		cfg := rf.DefaultConfig()
		cfg.NEstimators = trees
		forest, err := rf.Train(X, y, cfg)
		if err != nil {
			b.Fatal(err)
		}
		probe := X[0]
		b.Run(fmt.Sprintf("trees=%d", trees), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := forest.Predict(probe); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Extension: chunk-parallel compression vs single-stream ---

func BenchmarkChunkedVsWhole(b *testing.B) {
	codec, err := codecs.ByName("sperr")
	if err != nil {
		b.Fatal(err)
	}
	f := benchField(b, "miranda", "density", 48)
	eb := compressor.AbsBound(f, 1e-3)
	b.Run("whole", func(b *testing.B) {
		b.SetBytes(int64(f.SizeBytes()))
		for i := 0; i < b.N; i++ {
			if _, err := codec.Compress(f, eb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chunked", func(b *testing.B) {
		b.SetBytes(int64(f.SizeBytes()))
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.New(codec, pipeline.Options{}).Compress(f, eb); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation 5: parallel feature-extraction block size ---

func BenchmarkAblationBlockSize(b *testing.B) {
	f := benchField(b, "nyx", "baryon_density", 64)
	for _, bs := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("block=%d", bs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				features.ExtractParallel(f, features.ParallelOptions{BlockSize: bs})
			}
		})
	}
}
