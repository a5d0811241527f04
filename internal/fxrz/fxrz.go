// Package fxrz reimplements the FXRZ feature-driven fixed-ratio compression
// framework (Rahman et al., ICDE 2023), the baseline CAROL is evaluated
// against. FXRZ's pipeline is:
//
//  1. Data collection: run the FULL compressor over an error-bound sweep on
//     every training field (the step that dominates setup time);
//  2. Model training: a random forest tuned by randomized grid search with
//     k-fold cross-validation, re-run from scratch on every retrain;
//  3. Prediction: serial strided feature extraction followed by a forest
//     traversal.
package fxrz

import (
	"errors"
	"fmt"
	"time"

	"carol/internal/compressor"
	"carol/internal/features"
	"carol/internal/field"
	"carol/internal/gridsearch"
	"carol/internal/pipeline"
	"carol/internal/rf"
	"carol/internal/trainset"
)

// Config tunes the framework. Zero values take defaults.
type Config struct {
	// ErrorBounds is the relative error-bound sweep used during data
	// collection. Default: 35 geometric points in [1e-4, 1e-1], as in the
	// paper's experiments.
	ErrorBounds []float64
	// GridConfigs is the number of randomized grid-search configurations
	// (FXRZ uses 10).
	GridConfigs int
	// KFolds for cross-validation. Default 3.
	KFolds int
	// FeatureStride is the point-sampling stride for feature extraction
	// (FXRZ uses 4).
	FeatureStride int
	// ForestCap limits NEstimators during training to keep scaled-down
	// experiments fast; 0 means no cap.
	ForestCap int
	// Workers bounds the CPU parallelism of data collection (fields
	// compressed at once), forest training and cross-validation: 0 uses
	// every core, 1 forces the serial engine. Training sets and models are
	// bit-identical for every value.
	Workers int
	// Seed drives all randomized components.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if len(c.ErrorBounds) == 0 {
		c.ErrorBounds = trainset.GeometricBounds(1e-4, 1e-1, 35)
	}
	if c.GridConfigs <= 0 {
		c.GridConfigs = 10
	}
	if c.KFolds <= 0 {
		c.KFolds = 3
	}
	if c.FeatureStride <= 0 {
		c.FeatureStride = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// CollectStats reports the cost of a data-collection run.
type CollectStats struct {
	Duration       time.Duration
	Fields         int
	Samples        int
	CompressorRuns int
}

// TrainStats reports the cost and outcome of a training run.
type TrainStats struct {
	Duration   time.Duration
	Configs    int
	BestScore  float64
	BestConfig rf.Config
}

// Framework is an FXRZ instance bound to one compressor.
type Framework struct {
	codec  compressor.Codec
	cfg    Config
	set    trainset.Set
	forest *rf.Forest
}

// New returns an FXRZ framework for codec.
func New(codec compressor.Codec, cfg Config) *Framework {
	return &Framework{codec: codec, cfg: cfg.withDefaults()}
}

// Codec returns the underlying compressor.
func (fw *Framework) Codec() compressor.Codec { return fw.codec }

// TrainingSize returns the number of collected samples.
func (fw *Framework) TrainingSize() int { return fw.set.Len() }

// Collect runs FXRZ's data collection on the given fields: features via
// strided serial extraction, then a full compressor run per error bound.
// Fields are compressed on up to Config.Workers goroutines, as CAROL's
// Collect does, and their samples added in field order, so the training
// set, the stats and the error are those of a serial loop.
func (fw *Framework) Collect(fields []*field.Field) (CollectStats, error) {
	start := time.Now()
	stats := CollectStats{Fields: len(fields)}
	curves, err := pipeline.FanOut(len(fields), fw.cfg.Workers, func(i int) (fieldCurve, error) {
		return fw.collectField(fields[i]), nil
	})
	if err != nil {
		return stats, err
	}
	for _, c := range curves {
		for i, ratio := range c.ratios {
			stats.CompressorRuns++
			if err := fw.set.Add(trainset.Sample{Features: c.feat, Ratio: ratio, RelEB: fw.cfg.ErrorBounds[i]}); err != nil {
				return stats, err
			}
			stats.Samples++
		}
		if c.err != nil {
			return stats, c.err
		}
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// fieldCurve is one field's share of a Collect: its features and the
// measured ratio at each error bound up to the first compressor error.
type fieldCurve struct {
	feat   features.Vector
	ratios []float64
	err    error
}

func (fw *Framework) collectField(f *field.Field) fieldCurve {
	c := fieldCurve{feat: features.ExtractSampled(f, fw.cfg.FeatureStride)}
	for _, rel := range fw.cfg.ErrorBounds {
		stream, err := fw.codec.Compress(f, compressor.AbsBound(f, rel))
		if err != nil {
			c.err = fmt.Errorf("fxrz: collect %s at rel=%g: %w", f.Name, rel, err)
			return c
		}
		c.ratios = append(c.ratios, compressor.Ratio(f, stream))
	}
	return c
}

// Train runs the randomized grid search from scratch (FXRZ has no warm
// start: every retrain regenerates candidate configurations and
// re-validates them) and fits the final forest with the winning
// configuration.
func (fw *Framework) Train() (TrainStats, error) {
	if fw.set.Len() == 0 {
		return TrainStats{}, errors.New("fxrz: no training data collected")
	}
	start := time.Now()
	X, y := fw.set.Matrix()
	res, err := gridsearch.Search(X, y, fw.cfg.GridConfigs, fw.cfg.KFolds, fw.cfg.Seed, fw.cfg.ForestCap, fw.cfg.Workers)
	if err != nil {
		return TrainStats{}, fmt.Errorf("fxrz: grid search: %w", err)
	}
	cfg := res.Config
	cfg.Workers = fw.cfg.Workers
	if fw.cfg.ForestCap > 0 && cfg.NEstimators > fw.cfg.ForestCap {
		cfg.NEstimators = fw.cfg.ForestCap
	}
	forest, err := rf.Train(X, y, cfg)
	if err != nil {
		return TrainStats{}, fmt.Errorf("fxrz: final fit: %w", err)
	}
	fw.forest = forest
	return TrainStats{
		Duration:   time.Since(start),
		Configs:    res.Evaluated,
		BestScore:  res.Score,
		BestConfig: res.Config,
	}, nil
}

// Trained reports whether Train has produced a model.
func (fw *Framework) Trained() bool { return fw.forest != nil }

// PredictErrorBound estimates the value-range-relative error bound that
// should achieve targetRatio on f. This is FXRZ's inference path: strided
// serial feature extraction plus a forest traversal.
func (fw *Framework) PredictErrorBound(f *field.Field, targetRatio float64) (float64, error) {
	if fw.forest == nil {
		return 0, errors.New("fxrz: model not trained")
	}
	if !(targetRatio > 0) {
		return 0, fmt.Errorf("fxrz: invalid target ratio %g", targetRatio)
	}
	feat := features.ExtractSampled(f, fw.cfg.FeatureStride)
	pred, err := fw.forest.Predict(trainset.Row(feat, targetRatio))
	if err != nil {
		return 0, err
	}
	return trainset.EBFromTarget(pred), nil
}

// CompressToRatio predicts the error bound for targetRatio and runs the
// compressor with it, returning the stream and the achieved ratio.
func (fw *Framework) CompressToRatio(f *field.Field, targetRatio float64) ([]byte, float64, error) {
	rel, err := fw.PredictErrorBound(f, targetRatio)
	if err != nil {
		return nil, 0, err
	}
	stream, err := fw.codec.Compress(f, compressor.AbsBound(f, rel))
	if err != nil {
		return nil, 0, err
	}
	return stream, compressor.Ratio(f, stream), nil
}
