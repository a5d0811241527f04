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
// NewFXRZ builds the same Framework with each of those four stages set
// back to FXRZ's (Rahman et al., ICDE 2023), the baseline CAROL is
// evaluated against.
//
// The exported, documented entry point for users is the root package carol,
// which wraps this one.
package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"carol/internal/bayesopt"
	"carol/internal/calib"
	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/features"
	"carol/internal/field"
	"carol/internal/fraz"
	"carol/internal/gridsearch"
	"carol/internal/model"
	"carol/internal/obs"
	"carol/internal/pipeline"
	"carol/internal/rf"
	"carol/internal/secre"
	"carol/internal/trainset"
)

// The training defaults, exported for caroltrain's flags: a collection
// sweep of DefaultBounds geometric relative bounds in [MinErrorBound,
// MaxErrorBound], DefaultBOIterations Bayesian-optimization evaluations
// and DefaultKFolds cross-validation folds.
const (
	MinErrorBound       = 1e-4
	MaxErrorBound       = 1e-1
	DefaultBounds       = 35
	DefaultBOIterations = 10
	DefaultKFolds       = 3
)

// Config tunes the framework. Zero values take defaults.
type Config struct {
	// ErrorBounds is the relative error-bound sweep used during data
	// collection. Default: DefaultBounds geometric points in
	// [MinErrorBound, MaxErrorBound].
	ErrorBounds []float64
	// CalibrationPoints is the number of full-compressor runs used to
	// calibrate the surrogate per training field. -1 selects the paper's
	// recommendation automatically: 0 for the high-throughput group
	// (SZx, ZFP), 4 for the high-ratio group (SZ3, SPERR). Default -1.
	CalibrationPoints int
	// BOIterations is the number of Bayesian-optimization evaluations in a
	// full training run. Default DefaultBOIterations.
	BOIterations int
	// RefineIterations is the number of additional BO evaluations during
	// an incremental Refine. Default 3.
	RefineIterations int
	// KFolds for cross-validation scoring. Default DefaultKFolds.
	KFolds int
	// ForestCap limits NEstimators in the final model to keep scaled-down
	// experiments fast; 0 means no cap.
	ForestCap int
	// Model lists the regression backends by their model.KnownBackends
	// tags, comma-separated (model.ParseBackends): "rf" (random forest with
	// Bayesian-optimized hyper-parameters — the paper's design) and
	// "boost" (gradient-boosted trees with default hyper-parameters, the
	// paper's "different machine learning models" future-work direction).
	// The forest's search runs only when "rf" is listed. With two or more
	// tags Train cross-validates each on one shared KFolds split and fits
	// only the lowest-scoring one, the earlier tag winning a tie. Collect
	// refuses an unknown or repeated tag. Default "rf".
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
	// is 1. (Feature extraction scans its sampled blocks over GOMAXPROCS
	// goroutines, features.ExtractParallel's defaults, and gives the same
	// bits for any worker count.)
	Workers int
	// Seed drives all randomized components.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if len(c.ErrorBounds) == 0 {
		c.ErrorBounds = trainset.GeometricBounds(MinErrorBound, MaxErrorBound, DefaultBounds)
	}
	if c.CalibrationPoints == 0 {
		c.CalibrationPoints = -1
	}
	if c.BOIterations <= 0 {
		c.BOIterations = DefaultBOIterations
	}
	if c.RefineIterations <= 0 {
		c.RefineIterations = 3
	}
	if c.KFolds <= 0 {
		c.KFolds = DefaultKFolds
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
	// FullCompressorRuns counts runs of the real compressor: calibration
	// runs, or FXRZ's whole sweep.
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
	// (Figure 5b of the paper plots NEstimators from this); the grid search
	// leaves it empty.
	Trajectory []rf.Config
	// Resumed reports whether the run continued from a checkpoint.
	Resumed bool
	// Backend is the tag of the fitted model.
	Backend string
	// Zoo holds each listed backend's cross-validation outcome, in
	// Config.Model order, when it lists two or more; it is empty otherwise.
	Zoo []Candidate
}

// Framework is a CAROL (or, from NewFXRZ, an FXRZ) instance bound to one
// compressor.
type Framework struct {
	codec     compressor.Codec
	surrogate compressor.Estimator
	cfg       Config
	// The stages NewFXRZ swaps: the feature extractor (collection and
	// prediction), whether the surrogate's sweep is the real compressor's,
	// and the forest's hyper-parameter search.
	extract   func(*field.Field) features.Vector
	fullSweep bool
	search    func(X [][]float64, y []float64, iterations int) (gridsearch.Result, error)
	set       trainset.Set
	opt       *bayesopt.Optimizer
	model     model.Regressor
	// backend is the tag model was fitted as.
	backend string
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
	fw.extract = extractParallel
	// CAROL's search: iterations more evaluations of the checkpointable
	// Bayesian optimizer.
	fw.search = func(X [][]float64, y []float64, iterations int) (gridsearch.Result, error) {
		return gridsearch.Bayes(fw.opt, X, y, iterations, fw.cfg.KFolds, fw.cfg.Seed, fw.cfg.ForestCap, fw.cfg.Workers)
	}
	fw.opt = bayesopt.New(gridsearch.BOSpace(), fw.cfg.Seed)
	fw.opt.Workers = fw.cfg.Workers
	return fw
}

// fxrzFeatureStride is FXRZ's point-sampling stride for feature extraction.
const fxrzFeatureStride = 4

// NewFXRZ returns the FXRZ baseline for codec: this Framework with each
// stage CAROL replaces set back to FXRZ's.
//
//   - Collection runs the full compressor over the sweep
//     (secre.FullEstimator), without calibration; CollectStats counts the
//     runs as FullCompressorRuns.
//   - Features come from serial strided extraction
//     (features.ExtractSampled, stride 4), for collection and prediction.
//   - Train is a randomized grid search over Config.BOIterations
//     configurations (gridsearch.Search), and Refine runs it again from
//     scratch: FXRZ has no warm start.
//
// CalibrationPoints and RefineIterations are ignored.
func NewFXRZ(codec compressor.Codec, cfg Config) *Framework {
	fw := NewWith(codec, &secre.FullEstimator{Codec: codec}, cfg)
	fw.cfg.CalibrationPoints = NoCalibration
	fw.cfg.RefineIterations = fw.cfg.BOIterations
	fw.extract = func(f *field.Field) features.Vector { return features.ExtractSampled(f, fxrzFeatureStride) }
	fw.fullSweep = true
	fw.search = func(X [][]float64, y []float64, iterations int) (gridsearch.Result, error) {
		return gridsearch.Search(X, y, iterations, fw.cfg.KFolds, fw.cfg.Seed, fw.cfg.ForestCap, fw.cfg.Workers)
	}
	return fw
}

// Codec returns the underlying compressor.
func (fw *Framework) Codec() compressor.Codec { return fw.codec }

// TrainingSize returns the number of collected samples.
func (fw *Framework) TrainingSize() int { return fw.set.Len() }

// TrainingSet exposes the collected samples (not a copy), e.g. for the
// experiments that train other models on one collection pass.
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

// Collect runs the data collection on the given fields: feature
// extraction, optional per-field calibration, then a surrogate estimate
// per error bound. Fields are collected on up to Config.Workers
// goroutines and their samples added in field order, so the training set,
// the stats and the error (the first failing field's) are those of a
// serial loop.
func (fw *Framework) Collect(fields []*field.Field) (CollectStats, error) {
	// Refuse a model list Train cannot fit before paying for extraction
	// and calibration runs.
	if _, err := model.ParseBackends(fw.cfg.Model); err != nil {
		return CollectStats{}, fmt.Errorf("core: %w", err)
	}
	start := time.Now()
	stats := CollectStats{Fields: len(fields)}
	sweepRuns := &stats.SurrogateRuns
	if fw.fullSweep {
		sweepRuns = &stats.FullCompressorRuns
	}
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
			*sweepRuns++
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
	c := fieldCurve{feat: fw.extract(f)}
	ebs := compressor.AbsBounds(f, fw.cfg.ErrorBounds)
	var cal *calib.Model
	if nCal := fw.calibrationPoints(); nCal >= 2 {
		var err error
		cal, err = calib.Fit(fw.codec, fw.surrogate, f, calib.PickCalibrationBounds(ebs[0], ebs[len(ebs)-1], nCal))
		if err != nil {
			c.err = fmt.Errorf("core: calibrate %s: %w", f.Name, err)
			return c
		}
		c.calibrationRuns = nCal
	}
	// One sweep per field: a SECRE surrogate validates and samples the
	// field once for all of its bounds.
	ratios, err := secre.Curve(fw.surrogate, f, ebs)
	if err != nil {
		c.err = fmt.Errorf("core: estimate %s: %w", f.Name, err)
		return c
	}
	if cal != nil {
		ratios = cal.CorrectCurve(ebs, ratios)
	}
	c.ratios = ratios
	return c
}

// Train runs the hyper-parameter search (when Config.Model lists "rf"),
// picks the backend (when it lists two or more) and fits it. If the
// Bayesian optimizer already holds observations (from a previous Train or a
// restored checkpoint) the search resumes instead of restarting.
func (fw *Framework) Train() (TrainStats, error) {
	return fw.train(fw.cfg.BOIterations)
}

// Refine performs incremental model refinement: collect data from the new
// fields with the surrogate pipeline, resume the BO search from its
// checkpoint for a few iterations, and refit. This is the path FXRZ cannot
// take: NewFXRZ's grid search starts over each time.
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
	tags, err := model.ParseBackends(fw.cfg.Model)
	if err != nil {
		return TrainStats{}, fmt.Errorf("core: %w", err)
	}
	start := time.Now()
	X, y := fw.set.Matrix()
	// Only the forest has a hyper-parameter search; every other backend is
	// one fit with its defaults.
	stats := TrainStats{Evaluated: 1}
	if slices.Contains(tags, model.BackendRF) {
		res, err := fw.search(X, y, iterations)
		if err != nil {
			return stats, fmt.Errorf("core: %w", err)
		}
		stats = TrainStats{Evaluated: res.Evaluated, BestScore: res.Score, BestConfig: res.Config,
			Trajectory: res.Trajectory, Resumed: res.Resumed}
		fw.bestCfg = stats.BestConfig
		if fw.cfg.ForestCap > 0 && fw.bestCfg.NEstimators > fw.cfg.ForestCap {
			fw.bestCfg.NEstimators = fw.cfg.ForestCap
		}
	}
	stats.Backend = tags[0]
	if len(tags) > 1 {
		if stats.Zoo, err = fw.zoo(X, y, tags); err != nil {
			return stats, err
		}
		w := winner(stats.Zoo)
		if w < 0 {
			return stats, errors.New("core: every backend failed")
		}
		stats.Backend = stats.Zoo[w].Backend
	}
	fw.backend = stats.Backend
	if err := fw.fit(X, y); err != nil {
		return stats, err
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// Trained reports whether a model is available.
func (fw *Framework) Trained() bool { return fw.model != nil }

// Forest returns the trained random forest. It errors when Train fitted
// another backend.
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

// Artifact wraps the trained model, tagged with its backend, into a
// publishable artifact for the framework's codec with meta as its
// provenance.
func (fw *Framework) Artifact(meta map[string]string) (*model.Artifact, error) {
	if fw.model == nil {
		return nil, errors.New("core: model not trained")
	}
	return &model.Artifact{Codec: fw.codec.Name(), Backend: fw.backend, Schema: model.CanonicalSchema(),
		Regressor: fw.model, Meta: meta}, nil
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
// should achieve targetRatio on f, from f's features and the trained model.
func (fw *Framework) PredictErrorBound(f *field.Field, targetRatio float64) (float64, error) {
	out, err := fw.PredictErrorBounds(f, []float64{targetRatio})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// PredictErrorBounds is the batch form of PredictErrorBound: it extracts
// f's features once and predicts the error bound for every target ratio in
// one regressor batch pass (model.PredictErrorBounds, the predictor a
// served artifact uses). This is the cheap way to build a ratio→bound
// curve for one field.
func (fw *Framework) PredictErrorBounds(f *field.Field, targetRatios []float64) ([]float64, error) {
	if fw.model == nil {
		return nil, errors.New("core: model not trained")
	}
	return model.PredictErrorBounds(fw.model, fw.extract(f), targetRatios)
}

// RatioOptions says how ResolveRatio reaches a target; the zero value is
// FRaZ's plain search.
type RatioOptions struct {
	// Model, when set, predicts the search's seed from f's features, which
	// Extract gives (nil: features.ExtractParallel at default options).
	Model   model.Regressor
	Extract func(*field.Field) features.Vector
	// Surrogate binds the codec's search surrogate (codecs.SearchSurrogate).
	Surrogate bool
	// MaxRuns is the real-run budget, fraz.Options.MaxRuns: 1 is one
	// compression at the model's bound, 0 is 16.
	MaxRuns int
	// Trace gets the features, predict, surrogate and search spans.
	Trace *obs.Trace
}

// ResolveRatio is the one fixed-ratio resolver: CompressToRatio,
// carolserve's ratio=, carol.IterativeCompressToRatio and Ext 2 call it. It
// extracts f's features once, seeds from model.PredictErrorBounds, binds
// the search surrogate when asked and runs fraz.Search under the budget. It
// also returns the features, where a Model read them.
func ResolveRatio(codec compressor.Codec, f *field.Field, targetRatio float64, o RatioOptions) (fraz.Result, features.Vector, error) {
	var feat features.Vector
	opts := fraz.Options{MaxRuns: o.MaxRuns}
	if o.Model != nil {
		if o.Extract == nil {
			o.Extract = extractParallel
		}
		span := o.Trace.StartSpan("features")
		feat = o.Extract(f)
		span.End()
		span = o.Trace.StartSpan("predict")
		seeds, err := model.PredictErrorBounds(o.Model, feat, []float64{targetRatio})
		span.End()
		if err != nil {
			return fraz.Result{}, feat, err
		}
		opts.Seed = seeds[0]
	}
	span := o.Trace.StartSpan("search")
	defer span.End()
	// Binding the surrogate plus its evaluations is the surrogate span.
	start := time.Now()
	if o.Surrogate {
		opts.Surrogate = codecs.SearchSurrogate(codec.Name(), f)
	}
	bind := time.Since(start)
	res, err := fraz.Search(codec, f, targetRatio, opts)
	if opts.Surrogate != nil {
		o.Trace.Record("surrogate", bind+res.SurrogateTime)
	}
	return res, feat, err
}

func extractParallel(f *field.Field) features.Vector {
	return features.ExtractParallel(f, features.ParallelOptions{})
}

// CompressToRatio predicts the error bound for targetRatio and runs the
// compressor once with it (ResolveRatio with a one-run budget), returning
// the stream and the achieved ratio. With Config.Feedback enabled, the
// measured (features, achieved ratio, bound) outcome is folded back into
// the training set — the paper's on-the-fly model-improvement loop.
func (fw *Framework) CompressToRatio(f *field.Field, targetRatio float64) ([]byte, float64, error) {
	if fw.model == nil {
		return nil, 0, errors.New("core: model not trained")
	}
	res, feat, err := ResolveRatio(fw.codec, f, targetRatio, RatioOptions{Model: fw.model, Extract: fw.extract, MaxRuns: 1})
	if err != nil {
		return nil, 0, err
	}
	if fw.cfg.Feedback {
		if err := fw.ObserveOutcome(feat, res.Achieved, res.RelEB); err != nil {
			return nil, 0, err
		}
	}
	return res.Stream, res.Achieved, nil
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

// fit fits the chosen backend on (X, y) without a hyper-parameter search.
func (fw *Framework) fit(X [][]float64, y []float64) error {
	m, err := fw.fitAs(fw.backend, X, y)
	if err != nil {
		return fmt.Errorf("core: %s fit: %w", fw.backend, err)
	}
	fw.model = m
	return nil
}

// fitAs fits backend tag on (X, y): the forest with the incumbent bestCfg,
// any other backend with its defaults.
func (fw *Framework) fitAs(tag string, X [][]float64, y []float64) (model.Regressor, error) {
	return model.Fit(tag, X, y, model.FitConfig{RF: fw.bestCfg, Seed: fw.cfg.Seed, Workers: fw.cfg.Workers})
}
