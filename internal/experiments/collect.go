package experiments

import (
	"time"

	"carol/internal/calib"
	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/core"
	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/secre"
)

// datasetFields generates up to maxFields representative fields of a
// dataset at the experiment sizing.
func datasetFields(p params, ds string, maxFields int) ([]*field.Field, error) {
	spec, err := dataset.Lookup(ds)
	if err != nil {
		return nil, err
	}
	names := spec.Fields
	if len(names) > maxFields {
		names = names[:maxFields]
	}
	out := make([]*field.Field, 0, len(names))
	for _, fn := range names {
		f, err := p.genField(ds, fn, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// collectedTrainingData is CAROL's collection (core.Collect with the SZx
// surrogate) over up to three of a dataset's fields, as the training
// matrix, for experiments that only need realistic training data
// (Figure 5b).
func collectedTrainingData(p params, ds string) ([][]float64, []float64, error) {
	fields, err := datasetFields(p, ds, 3)
	if err != nil {
		return nil, nil, err
	}
	fw, err := core.New("szx", core.Config{ErrorBounds: p.sweep})
	if err != nil {
		return nil, nil, err
	}
	if _, err := fw.Collect(fields); err != nil {
		return nil, nil, err
	}
	X, y := fw.TrainingSet().Matrix()
	return X, y, nil
}

// sweepCurves is one field's ratio curves over an error-bound sweep, each
// one secre.Curve and timed: the full compressor's (the truth) and the
// SECRE surrogate's, bound to the field once as CAROL's collection binds it.
type sweepCurves struct {
	codec             compressor.Codec
	sur               compressor.Estimator
	f                 *field.Field
	ebs               []float64 // the sweep's absolute bounds
	truth, raw        []float64
	fullTime, rawTime time.Duration
}

// measureSweep measures the named codec's two curves on f over the
// relative bounds rels.
func measureSweep(name string, f *field.Field, rels []float64) (*sweepCurves, error) {
	codec, err := codecs.ByName(name)
	if err != nil {
		return nil, err
	}
	sur, err := codecs.SurrogateByName(name)
	if err != nil {
		return nil, err
	}
	s := &sweepCurves{codec: codec, sur: sur, f: f, ebs: compressor.AbsBounds(f, rels)}
	if s.fullTime, err = timeIt(func() (err error) {
		s.truth, err = secre.Curve(&secre.FullEstimator{Codec: codec}, f, s.ebs)
		return err
	}); err != nil {
		return nil, err
	}
	if s.rawTime, err = timeIt(func() (err error) {
		s.raw, err = secre.Curve(sur, f, s.ebs)
		return err
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// calibrate fits an nCal-point calibration spread across the sweep and
// corrects the surrogate curve with it; d times the fit and the correction.
func (s *sweepCurves) calibrate(nCal int) (cals []float64, m *calib.Model, d time.Duration, err error) {
	d, err = timeIt(func() (err error) {
		lo, hi := s.ebs[0], s.ebs[len(s.ebs)-1]
		if m, err = calib.Fit(s.codec, s.sur, s.f, calib.PickCalibrationBounds(lo, hi, nCal)); err != nil {
			return err
		}
		cals = m.CorrectCurve(s.ebs, s.raw)
		return nil
	})
	return cals, m, d, err
}
