package model

import (
	"fmt"

	"carol/internal/features"
	"carol/internal/field"
	"carol/internal/trainset"
)

// ServingCheck verifies the artifact can answer predictions in this
// process: its schema must be the canonical one the feature extractor
// produces. A schema mismatch means the artifact was built by a different
// (future or foreign) pipeline, and silently feeding it differently-
// ordered inputs would produce confidently wrong bounds.
func (a *Artifact) ServingCheck() error {
	if !schemaMatches(a.Schema, CanonicalSchema()) {
		return fmt.Errorf("model: artifact schema %v does not match serving schema %v",
			a.Schema, CanonicalSchema())
	}
	if a.Dims() != trainset.InputDim {
		return fmt.Errorf("model: %s regressor expects %d inputs, serving builds %d",
			a.BackendTag(), a.Dims(), trainset.InputDim)
	}
	return nil
}

// PredictErrorBounds is the one ratio→bound predictor, shared by the
// artifact (serving) and core.Framework (library) paths: one trainset.Row
// per target ratio over an already-extracted feature vector, one batch
// pass through the regressor, then trainset.EBFromTarget on each output.
func PredictErrorBounds(r Regressor, feat features.Vector, targetRatios []float64) ([]float64, error) {
	rows := make([][]float64, len(targetRatios))
	for i, ratio := range targetRatios {
		if !(ratio > 0) {
			return nil, fmt.Errorf("model: invalid target ratio %g", ratio)
		}
		rows[i] = trainset.Row(feat, ratio)
	}
	out, err := r.PredictBatch(rows)
	if err != nil {
		return nil, err
	}
	for i, p := range out {
		out[i] = trainset.EBFromTarget(p)
	}
	return out, nil
}

// PredictErrorBounds predicts the value-range-relative error bound that
// should achieve each target ratio on f — the one-shot answer that replaces
// a per-request FRaZ-style iterative search: one feature extraction (the
// same parallel extractor the training pipeline used), one regressor batch
// pass over every target ratio.
func (a *Artifact) PredictErrorBounds(f *field.Field, targetRatios []float64, opts features.ParallelOptions) ([]float64, error) {
	if err := a.ServingCheck(); err != nil {
		return nil, err
	}
	if len(targetRatios) == 0 {
		return nil, fmt.Errorf("model: no target ratios")
	}
	return PredictErrorBounds(a.Regressor, features.ExtractParallel(f, opts), targetRatios)
}
