// Package boost implements gradient-boosted regression trees with squared
// loss — one of the alternative machine-learning models the CAROL paper's
// conclusion proposes exploring in place of the random forest. Each round
// fits a shallow CART tree (reusing package rf's tree machinery via
// single-tree forests) to the current residuals and adds it with shrinkage.
//
// Training obeys the same parallelism contract as package rf: Config.Workers
// only bounds CPU concurrency (per-round tree growth and the batch residual
// update both run on rf's deterministic worker pools), so a trained model is
// bit-identical for every Workers value.
package boost

import (
	"errors"
	"fmt"
	"math"

	"carol/internal/rf"
)

// Config tunes the booster. Zero values take defaults.
type Config struct {
	// Rounds is the number of boosting stages. Default 100.
	Rounds int
	// Depth is the per-tree depth. Default 3 (classic stumps-plus).
	Depth int
	// Shrinkage is the learning rate. Default 0.1.
	Shrinkage float64
	// MinSamplesLeaf guards tiny leaves. Default 2.
	MinSamplesLeaf int
	// Seed drives tie-breaking inside tree construction.
	Seed uint64
	// Workers bounds the goroutines used for per-round tree growth and the
	// residual-update batch prediction: 0 uses every core, 1 forces the
	// serial path. It does not affect the trained model — output is
	// bit-identical for every value (the rf contract).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Rounds <= 0 {
		c.Rounds = 100
	}
	if c.Depth <= 0 {
		c.Depth = 3
	}
	if c.Shrinkage <= 0 {
		c.Shrinkage = 0.1
	}
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Model is a trained gradient-boosted ensemble.
type Model struct {
	base      float64
	stages    []*rf.Forest // each a single-tree forest
	shrinkage float64
	dims      int
}

// Train fits a boosted ensemble on (X, y).
func Train(X [][]float64, y []float64, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("boost: empty or mismatched training data")
	}
	var base float64
	for _, v := range y {
		base += v
	}
	base /= float64(len(y))

	m := &Model{base: base, shrinkage: cfg.Shrinkage, dims: len(X[0])}
	resid := make([]float64, len(y))
	for i, v := range y {
		resid[i] = v - base
	}
	treeCfg := rf.Config{
		NEstimators:     1,
		MaxFeatures:     rf.MaxFeaturesAuto,
		MaxDepth:        cfg.Depth,
		MinSamplesSplit: 2 * cfg.MinSamplesLeaf,
		MinSamplesLeaf:  cfg.MinSamplesLeaf,
		Bootstrap:       false,
		Workers:         cfg.Workers,
	}
	// Every round fits the same X, so its columns are ranked once.
	train, err := rf.TrainerFor(X)
	if err != nil {
		return nil, fmt.Errorf("boost: %w", err)
	}
	for round := 0; round < cfg.Rounds; round++ {
		treeCfg.Seed = cfg.Seed + uint64(round)
		tree, err := train(resid, treeCfg)
		if err != nil {
			return nil, fmt.Errorf("boost: round %d: %w", round, err)
		}
		m.stages = append(m.stages, tree)
		// Update residuals with one batch pass (parallel across rows on the
		// Workers pool; per-row predictions are independent, so the result
		// is bit-identical for any worker count).
		preds, err := tree.PredictBatch(X)
		if err != nil {
			return nil, fmt.Errorf("boost: round %d residuals: %w", round, err)
		}
		var maxAbs float64
		for i := range X {
			resid[i] -= cfg.Shrinkage * preds[i]
			if a := abs(resid[i]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs < 1e-12 {
			break // perfectly fit; further rounds are no-ops
		}
	}
	return m, nil
}

// Rounds returns the number of fitted stages.
func (m *Model) Rounds() int { return len(m.stages) }

// Dims returns the input dimensionality the model was trained on.
func (m *Model) Dims() int { return m.dims }

// SetWorkers rebinds prediction parallelism on every stage without touching
// the model (predictions are bit-identical for every value).
func (m *Model) SetWorkers(w int) {
	for _, stage := range m.stages {
		stage.SetWorkers(w)
	}
}

// Stats summarizes the ensemble's shape in rf.Stats terms: Trees is the
// stage count, Nodes the total node count, MaxDepth the deepest stage.
func (m *Model) Stats() rf.Stats {
	s := rf.Stats{Trees: len(m.stages)}
	for _, stage := range m.stages {
		ss := stage.Stats()
		s.Nodes += ss.Nodes
		if ss.MaxDepth > s.MaxDepth {
			s.MaxDepth = ss.MaxDepth
		}
	}
	return s
}

// Predict returns the boosted prediction for one feature row.
func (m *Model) Predict(x []float64) (float64, error) {
	if len(x) != m.dims {
		return 0, fmt.Errorf("boost: predict with %d features, trained on %d", len(x), m.dims)
	}
	out := m.base
	for _, stage := range m.stages {
		p, err := stage.Predict(x)
		if err != nil {
			return 0, err
		}
		out += m.shrinkage * p
	}
	return out, nil
}

// PredictBatch predicts every row, one stage batch pass at a time.
func (m *Model) PredictBatch(rows [][]float64) ([]float64, error) {
	out := make([]float64, len(rows))
	for i, row := range rows {
		if len(row) != m.dims {
			return nil, fmt.Errorf("boost: row %d has %d features, trained on %d", i, len(row), m.dims)
		}
		out[i] = m.base
	}
	for _, stage := range m.stages {
		preds, err := stage.PredictBatch(rows)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] += m.shrinkage * preds[i]
		}
	}
	return out, nil
}

// Flat is the flattened, serialization-ready form of a Model: the scalar
// hyper-state plus every stage exported through rf.Flat. It carries no
// unexported state, so internal/model can encode it field by field and
// reconstruct an identical model with FromFlat.
type Flat struct {
	Base      float64
	Shrinkage float64
	Dims      int
	Stages    []*rf.Flat
}

// Flatten exports the model into its serialization form.
func (m *Model) Flatten() *Flat {
	fl := &Flat{Base: m.base, Shrinkage: m.shrinkage, Dims: m.dims}
	fl.Stages = make([]*rf.Flat, len(m.stages))
	for i, stage := range m.stages {
		fl.Stages[i] = stage.Flatten()
	}
	return fl
}

// FromFlat validates fl and reconstructs the model. Validation is total —
// fl may come from an attacker-controlled artifact: scalars must be finite
// (shrinkage positive), at least one stage must exist, and every stage must
// pass rf.FromFlat with the model's input dimensionality.
func FromFlat(fl *Flat) (*Model, error) {
	if math.IsNaN(fl.Base) || math.IsInf(fl.Base, 0) {
		return nil, errors.New("boost: flat model has non-finite base")
	}
	if !(fl.Shrinkage > 0) || math.IsInf(fl.Shrinkage, 0) {
		return nil, fmt.Errorf("boost: flat model shrinkage %g outside (0, inf)", fl.Shrinkage)
	}
	if fl.Dims < 1 {
		return nil, fmt.Errorf("boost: flat model with %d input dims", fl.Dims)
	}
	if len(fl.Stages) == 0 {
		return nil, errors.New("boost: flat model with no stages")
	}
	m := &Model{base: fl.Base, shrinkage: fl.Shrinkage, dims: fl.Dims}
	m.stages = make([]*rf.Forest, len(fl.Stages))
	for i, sf := range fl.Stages {
		if sf == nil {
			return nil, fmt.Errorf("boost: flat stage %d is nil", i)
		}
		if sf.Dims != fl.Dims {
			return nil, fmt.Errorf("boost: flat stage %d has %d dims, model has %d", i, sf.Dims, fl.Dims)
		}
		stage, err := rf.FromFlat(sf)
		if err != nil {
			return nil, fmt.Errorf("boost: flat stage %d: %w", i, err)
		}
		m.stages[i] = stage
	}
	return m, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
