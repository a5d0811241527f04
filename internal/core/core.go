// Package core implements the CAROL framework itself — the paper's primary
// contribution (§4–§5): a ratio-controlled lossy compression framework that
//
//  1. collects training data with SECRE surrogate estimation instead of
//     full compressor runs (core contribution 1),
//  2. corrects the surrogate's systematic error with a few-point
//     calibration for the high-ratio compressors (core contribution 2),
//  3. tunes its random-forest model with checkpointable Bayesian
//     optimization instead of randomized grid search (core contribution 3),
//  4. extracts prediction features with the block-parallel extractor
//     (core contribution 4).
//
// The exported, documented entry point for users is the root package carol,
// which wraps this one.
package core

import (
	"errors"
	"fmt"
	"time"

	"carol/internal/bayesopt"
	"carol/internal/calib"
	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/features"
	"carol/internal/field"
	"carol/internal/gridsearch"
	"carol/internal/model"
	"carol/internal/pipeline"
	"carol/internal/rf"
	"carol/internal/secre"
	"carol/internal/trainset"
)

// Config tunes the framework. Zero values take defaults.
type Config struct {
	// ErrorBounds is the relative error-bound sweep used during data
	// collection. Default: 35 geometric points in [1e-4, 1e-1].
	ErrorBounds []float64
	// CalibrationPoints is the number of full-compressor runs used to
	// calibrate the surrogate per training field. -1 selects the paper's
	// recommendation automatically: 0 for the high-throughput group
	// (SZx, ZFP), 4 for the high-ratio group (SZ3, SPERR). Default -1.
	CalibrationPoints int
	// BOIterations is the number of Bayesian-optimization evaluations in a
	// full training run. Default 10.
	BOIterations int
	// RefineIterations is the number of additional BO evaluations during
	// an incremental Refine. Default 3.
	RefineIterations int
	// KFolds for cross-validation scoring. Default 3.
	KFolds int
	// ForestCap limits NEstimators in the final model to keep scaled-down
	// experiments fast; 0 means no cap.
	ForestCap int
	// Features tunes the parallel feature extractor.
	Features features.ParallelOptions
	// Model selects the regression model by its model.KnownBackends tag:
	// "rf" (random forest with Bayesian-optimized hyper-parameters — the
	// paper's design) or "boost" (gradient-boosted trees with default
	// hyper-parameters, the paper's "different machine learning models"
	// future-work direction). Collect refuses any other tag. Default "rf".
	Model string
	// Feedback enables the paper's second future-work direction, the
	// on-the-fly improvement loop: every CompressToRatio outcome is fed
	// back into the training set, and the model is refit (with its
	// incumbent hyper-parameters — no new search) every FeedbackEvery
	// outcomes.
	Feedback bool
	// FeedbackEvery is the refit cadence for Feedback. Default 8.
	FeedbackEvery int
	// Workers bounds the CPU parallelism of data collection and model
	// training: fields collected at once, tree growth, cross-validation
	// folds, batch prediction and acquisition scoring all stay within this
	// many goroutines. 0 uses every core, 1 forces the serial engine.
	// Training sets and models are bit-identical for every value; the knob
	// only trades wall-clock for CPU on resource-limited hosts. Collect
	// calls the codec and surrogate from up to Workers goroutines, so a
	// pair given to NewWith must be safe for concurrent use unless Workers
	// is 1. (Feature extraction has its own knob, Features.Workers.)
	Workers int
	// Seed drives all randomized components.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if len(c.ErrorBounds) == 0 {
		c.ErrorBounds = trainset.GeometricBounds(1e-4, 1e-1, 35)
	}
	if c.CalibrationPoints == 0 {
		c.CalibrationPoints = -1
	}
	if c.BOIterations <= 0 {
		c.BOIterations = 10
	}
	if c.RefineIterations <= 0 {
		c.RefineIterations = 3
	}
	if c.KFolds <= 0 {
		c.KFolds = 3
	}
	if c.Model == "" {
		c.Model = model.BackendRF
	}
	if c.FeedbackEvery <= 0 {
		c.FeedbackEvery = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// NoCalibration is the CalibrationPoints value that disables calibration
// explicitly (as opposed to the automatic default).
const NoCalibration = -2

// CollectStats reports the cost of a data-collection run.
type CollectStats struct {
	Duration time.Duration
	Fields   int
	Samples  int
	// FullCompressorRuns counts calibration runs of the real compressor.
	FullCompressorRuns int
	// SurrogateRuns counts SECRE estimations.
	SurrogateRuns int
}

// TrainStats reports the cost and outcome of a training run.
type TrainStats struct {
	Duration   time.Duration
	Evaluated  int
	BestScore  float64
	BestConfig rf.Config
	// Trajectory records the configuration evaluated at each BO iteration
	// (Figure 5b of the paper plots NEstimators from this).
	Trajectory []rf.Config
	// Resumed reports whether the run continued from a checkpoint.
	Resumed bool
}

// Framework is a CAROL instance bound to one compressor.
type Framework struct {
	codec     compressor.Codec
	surrogate compressor.Estimator
	cfg       Config
	set       trainset.Set
	opt       *bayesopt.Optimizer
	model     model.Regressor
	// bestCfg holds the incumbent forest hyper-parameters (rf model only),
	// reused by feedback refits; zero means the backend's defaults.
	bestCfg rf.Config
	// pendingFeedback counts outcomes recorded since the last refit.
	pendingFeedback int
}

// New returns a CAROL framework for the named compressor
// ("szx", "zfp", "sz3", "sperr").
func New(name string, cfg Config) (*Framework, error) {
	codec, err := codecs.ByName(name)
	if err != nil {
		return nil, err
	}
	sur, err := codecs.SurrogateByName(name)
	if err != nil {
		return nil, err
	}
	return NewWith(codec, sur, cfg), nil
}

// NewWith builds a framework from an explicit compressor and surrogate —
// the extension path for compressors outside the built-in four ("Compressor
// Behavior 3" in the paper's conclusions: pair a sampled full-compression
// estimator with calibration when no purpose-built surrogate exists).
func NewWith(codec compressor.Codec, surrogate compressor.Estimator, cfg Config) *Framework {
	fw := &Framework{codec: codec, surrogate: surrogate, cfg: cfg.withDefaults()}
	fw.opt = bayesopt.New(gridsearch.BOSpace(), fw.cfg.Seed)
	fw.opt.Workers = fw.cfg.Workers
	return fw
}

// Codec returns the underlying compressor.
func (fw *Framework) Codec() compressor.Codec { return fw.codec }

// TrainingSize returns the number of collected samples.
func (fw *Framework) TrainingSize() int { return fw.set.Len() }

// TrainingSet exposes the collected samples (not a copy) so callers like
// caroltrain can feed the same data to the multi-backend zoo after the
// surrogate collection pass.
func (fw *Framework) TrainingSet() *trainset.Set { return &fw.set }

// calibrationPoints resolves the per-codec default.
func (fw *Framework) calibrationPoints() int {
	switch fw.cfg.CalibrationPoints {
	case NoCalibration:
		return 0
	case -1:
		if codecs.HighThroughput(fw.codec.Name()) {
			return 0
		}
		return 4
	default:
		return fw.cfg.CalibrationPoints
	}
}

// Collect runs CAROL's data collection on the given fields: parallel
// feature extraction, optional per-field calibration, then a surrogate
// estimate per error bound. Fields are collected on up to Config.Workers
// goroutines and their samples added in field order, so the training set,
// the stats and the error (the first failing field's) are those of a
// serial loop.
func (fw *Framework) Collect(fields []*field.Field) (CollectStats, error) {
	// Refuse a model tag Train cannot fit before paying for extraction and
	// calibration runs.
	if err := model.CheckBackends([]string{fw.cfg.Model}); err != nil {
		return CollectStats{}, fmt.Errorf("core: %w", err)
	}
	start := time.Now()
	stats := CollectStats{Fields: len(fields)}
	curves, err := pipeline.FanOut(len(fields), fw.cfg.Workers, func(i int) (fieldCurve, error) {
		return fw.collectField(fields[i]), nil
	})
	if err != nil {
		return stats, err
	}
	for _, c := range curves {
		stats.FullCompressorRuns += c.calibrationRuns
		if c.err != nil {
			return stats, c.err
		}
		for i, rel := range fw.cfg.ErrorBounds {
			stats.SurrogateRuns++
			if err := fw.set.Add(trainset.Sample{Features: c.feat, Ratio: c.ratios[i], RelEB: rel}); err != nil {
				return stats, err
			}
			stats.Samples++
		}
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// fieldCurve is one field's share of a Collect: its features and one
// (calibrated) ratio per error bound, or the error that stopped it.
type fieldCurve struct {
	feat            features.Vector
	ratios          []float64
	calibrationRuns int
	err             error
}

func (fw *Framework) collectField(f *field.Field) fieldCurve {
	c := fieldCurve{feat: features.ExtractParallel(f, fw.cfg.Features)}
	var cal *calib.Model
	if nCal := fw.calibrationPoints(); nCal >= 2 {
		relLo := fw.cfg.ErrorBounds[0]
		relHi := fw.cfg.ErrorBounds[len(fw.cfg.ErrorBounds)-1]
		bounds := calib.PickCalibrationBounds(
			compressor.AbsBound(f, relLo), compressor.AbsBound(f, relHi), nCal)
		var err error
		if cal, err = calib.Fit(fw.codec, fw.surrogate, f, bounds); err != nil {
			c.err = fmt.Errorf("core: calibrate %s: %w", f.Name, err)
			return c
		}
		c.calibrationRuns = nCal
	}
	// One sweep per field: a SECRE surrogate validates and samples the
	// field once for all of its bounds.
	ebs := make([]float64, len(fw.cfg.ErrorBounds))
	for i, rel := range fw.cfg.ErrorBounds {
		ebs[i] = compressor.AbsBound(f, rel)
	}
	ratios, err := secre.Curve(fw.surrogate, f, ebs)
	if err != nil {
		c.err = fmt.Errorf("core: estimate %s: %w", f.Name, err)
		return c
	}
	if cal != nil {
		for i := range ratios {
			ratios[i] = cal.Correct(ebs[i], ratios[i])
		}
	}
	c.ratios = ratios
	return c
}

// Train runs Bayesian-optimized hyper-parameter search and fits the final
// forest. If the optimizer already holds observations (from a previous
// Train or a restored checkpoint) the search resumes instead of restarting.
func (fw *Framework) Train() (TrainStats, error) {
	return fw.train(fw.cfg.BOIterations)
}

// Refine performs incremental model refinement: collect data from the new
// fields with the surrogate pipeline, resume the BO search from its
// checkpoint for a few iterations, and refit. This is the path FXRZ cannot
// take — its grid search starts over each time.
func (fw *Framework) Refine(newFields []*field.Field) (CollectStats, TrainStats, error) {
	cs, err := fw.Collect(newFields)
	if err != nil {
		return cs, TrainStats{}, err
	}
	ts, err := fw.train(fw.cfg.RefineIterations)
	return cs, ts, err
}

func (fw *Framework) train(iterations int) (TrainStats, error) {
	if fw.set.Len() == 0 {
		return TrainStats{}, errors.New("core: no training data collected")
	}
	start := time.Now()
	X, y := fw.set.Matrix()
	if fw.cfg.Model != model.BackendRF {
		// Only the forest has a hyper-parameter search; every other backend
		// is one fit with its defaults.
		if err := fw.fit(X, y); err != nil {
			return TrainStats{}, err
		}
		return TrainStats{Duration: time.Since(start), Evaluated: 1}, nil
	}
	stats := TrainStats{Resumed: len(fw.opt.Observations()) > 0}
	for i := 0; i < iterations; i++ {
		values := fw.opt.Suggest()
		cfg, err := gridsearch.ConfigFromValues(values, fw.cfg.Seed)
		if err != nil {
			return stats, err
		}
		evalCfg := cfg
		evalCfg.Workers = fw.cfg.Workers
		if fw.cfg.ForestCap > 0 && evalCfg.NEstimators > fw.cfg.ForestCap {
			evalCfg.NEstimators = fw.cfg.ForestCap
		}
		score, err := rf.CrossValidate(X, y, evalCfg, fw.cfg.KFolds, fw.cfg.Seed+uint64(i))
		if err != nil {
			return stats, fmt.Errorf("core: BO iteration %d: %w", i, err)
		}
		if err := fw.opt.Observe(values, score); err != nil {
			return stats, err
		}
		stats.Trajectory = append(stats.Trajectory, cfg)
		stats.Evaluated++
	}
	bestValues, bestScore, ok := fw.opt.Best()
	if !ok {
		return stats, errors.New("core: optimizer has no observations")
	}
	bestCfg, err := gridsearch.ConfigFromValues(bestValues, fw.cfg.Seed)
	if err != nil {
		return stats, err
	}
	stats.BestScore = bestScore
	stats.BestConfig = bestCfg
	if fw.cfg.ForestCap > 0 && bestCfg.NEstimators > fw.cfg.ForestCap {
		bestCfg.NEstimators = fw.cfg.ForestCap
	}
	fw.bestCfg = bestCfg
	if err := fw.fit(X, y); err != nil {
		return stats, err
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// Trained reports whether a model is available.
func (fw *Framework) Trained() bool { return fw.model != nil }

// Forest returns the trained random forest, e.g. to publish it as the
// regressor of an rf model artifact (internal/model). It errors for every
// other Config.Model.
func (fw *Framework) Forest() (*rf.Forest, error) {
	forest, ok := fw.model.(*rf.Forest)
	if !ok || forest == nil {
		return nil, errors.New("core: no trained rf model to export")
	}
	return forest, nil
}

// FeatureImportance returns the trained random forest's normalized
// per-input importances (the five features plus the log target ratio).
// Only available for the default "rf" model.
func (fw *Framework) FeatureImportance() ([]float64, error) {
	forest, err := fw.Forest()
	if err != nil {
		return nil, err
	}
	return forest.FeatureImportance(), nil
}

// Checkpoint exports the BO observations for persistence; Restore them into
// a new Framework to resume training where this one stopped.
func (fw *Framework) Checkpoint() []bayesopt.Observation {
	return fw.opt.Observations()
}

// RestoreCheckpoint warm-starts the optimizer from a saved checkpoint.
func (fw *Framework) RestoreCheckpoint(obs []bayesopt.Observation) error {
	return fw.opt.Restore(obs)
}

// PredictErrorBound estimates the value-range-relative error bound that
// should achieve targetRatio on f, using CAROL's parallel feature
// extraction and the trained model.
func (fw *Framework) PredictErrorBound(f *field.Field, targetRatio float64) (float64, error) {
	out, err := fw.PredictErrorBounds(f, []float64{targetRatio})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// PredictErrorBounds is the batch form of PredictErrorBound: it extracts
// f's features once and predicts the error bound for every target ratio in
// one regressor batch pass. This is the cheap way to build a ratio→bound
// curve for one field.
func (fw *Framework) PredictErrorBounds(f *field.Field, targetRatios []float64) ([]float64, error) {
	return fw.predict(features.ExtractParallel(f, fw.cfg.Features), targetRatios)
}

// predict runs the shared ratio→bound predictor (model.PredictErrorBounds,
// the same one a served artifact uses) on an extracted feature vector.
func (fw *Framework) predict(feat features.Vector, targetRatios []float64) ([]float64, error) {
	if fw.model == nil {
		return nil, errors.New("core: model not trained")
	}
	return model.PredictErrorBounds(fw.model, feat, targetRatios)
}

// CompressToRatio predicts the error bound for targetRatio and runs the
// compressor with it, returning the stream and the achieved ratio. With
// Config.Feedback enabled, the measured (features, achieved ratio, bound)
// outcome is folded back into the training set — the paper's on-the-fly
// model-improvement loop.
func (fw *Framework) CompressToRatio(f *field.Field, targetRatio float64) ([]byte, float64, error) {
	feat := features.ExtractParallel(f, fw.cfg.Features)
	rels, err := fw.predict(feat, []float64{targetRatio})
	if err != nil {
		return nil, 0, err
	}
	rel := rels[0]
	stream, err := fw.codec.Compress(f, compressor.AbsBound(f, rel))
	if err != nil {
		return nil, 0, err
	}
	achieved := compressor.Ratio(f, stream)
	if fw.cfg.Feedback {
		if err := fw.ObserveOutcome(feat, achieved, rel); err != nil {
			return nil, 0, err
		}
	}
	return stream, achieved, nil
}

// ObserveOutcome records a measured compression outcome — "this field, at
// this relative error bound, actually achieved this ratio" — into the
// training set, and refits the model in place (keeping the incumbent
// hyper-parameters) once Config.FeedbackEvery outcomes have accumulated.
func (fw *Framework) ObserveOutcome(feat features.Vector, achievedRatio, relEB float64) error {
	if err := fw.set.Add(trainset.Sample{Features: feat, Ratio: achievedRatio, RelEB: relEB}); err != nil {
		return fmt.Errorf("core: feedback sample: %w", err)
	}
	fw.pendingFeedback++
	if fw.pendingFeedback < fw.cfg.FeedbackEvery || fw.model == nil {
		return nil
	}
	fw.pendingFeedback = 0
	return fw.fit(fw.set.Matrix())
}

// fit fits Config.Model on (X, y) without a hyper-parameter search: the
// forest with the incumbent bestCfg, any other backend with its defaults.
func (fw *Framework) fit(X [][]float64, y []float64) error {
	m, err := model.Fit(fw.cfg.Model, X, y,
		model.FitConfig{RF: fw.bestCfg, Seed: fw.cfg.Seed, Workers: fw.cfg.Workers})
	if err != nil {
		return fmt.Errorf("core: %s fit: %w", fw.cfg.Model, err)
	}
	fw.model = m
	return nil
}
