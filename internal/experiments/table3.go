package experiments

import (
	"fmt"
	"io"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/core"
	"carol/internal/field"
	"carol/internal/secre"
	"carol/internal/stats"
)

// nyxFields are the four NYX fields of Table 3 (paper abbreviations BD,
// DMD, Temp, V-X).
var nyxFields = []struct{ field, label string }{
	{"baryon_density", "BD"},
	{"dark_matter_density", "DMD"},
	{"temperature", "Temp"},
	{"velocity_x", "V-X"},
}

// RunTable3 reproduces Table 3: single-domain end-to-end estimation error α
// of FXRZ and CAROL on the four NYX fields across all four compressors.
// Per the paper's protocol, each model trains on six early time steps of
// one field and is tested on a later step of the same field.
func RunTable3(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Table 3", "Single-domain estimation error α (train: NYX steps 0-5, test: step 7)")
	tw := newTable(w)
	fmt.Fprint(tw, "field")
	for _, name := range codecs.Names {
		fmt.Fprintf(tw, "\t%s FXRZ\t%s CAROL", name, name)
	}
	fmt.Fprintln(tw)

	avgF := make(map[string]*stats.Accumulator)
	avgC := make(map[string]*stats.Accumulator)
	for _, name := range codecs.Names {
		avgF[name] = &stats.Accumulator{}
		avgC[name] = &stats.Accumulator{}
	}
	for _, nf := range nyxFields {
		var train []*field.Field
		for step := 0; step < 6; step++ {
			f, err := p.genField("nyx", nf.field, step)
			if err != nil {
				return err
			}
			train = append(train, f)
		}
		test, err := p.genField("nyx", nf.field, 7)
		if err != nil {
			return err
		}
		fmt.Fprint(tw, nf.label)
		for _, name := range codecs.Names {
			aF, aC, err := singleDomainAlpha(p, name, train, test)
			if err != nil {
				return err
			}
			avgF[name].Add(aF)
			avgC[name].Add(aC)
			fmt.Fprintf(tw, "\t%.1f%%\t%.1f%%", aF, aC)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "average")
	for _, name := range codecs.Names {
		fmt.Fprintf(tw, "\t%.1f%%\t%.1f%%", avgF[name].Mean(), avgC[name].Mean())
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

// setup is one framework trained on an experiment's training set, with
// what its collection and training cost.
type setup struct {
	fw      *core.Framework
	collect core.CollectStats
	train   core.TrainStats
}

// trainBoth trains the FXRZ and the CAROL preset for codecName on train,
// as Table 3, Fig. 7 and Fig. 8 compare them: the same sweep, forest cap
// and seed, with p.gridCfgs grid configurations for FXRZ and p.boIters BO
// iterations for CAROL.
func trainBoth(p params, codecName string, train []*field.Field) (fx, ca setup, err error) {
	codec, err := codecs.ByName(codecName)
	if err != nil {
		return fx, ca, err
	}
	cfg := core.Config{ErrorBounds: p.sweep, BOIterations: p.gridCfgs, ForestCap: p.forestCap, Seed: p.seed}
	fx.fw = core.NewFXRZ(codec, cfg)
	cfg.BOIterations = p.boIters
	if ca.fw, err = core.New(codecName, cfg); err != nil {
		return fx, ca, err
	}
	for _, s := range []*setup{&fx, &ca} {
		if s.collect, err = s.fw.Collect(train); err != nil {
			return fx, ca, err
		}
		if s.train, err = s.fw.Train(); err != nil {
			return fx, ca, err
		}
	}
	return fx, ca, nil
}

// singleDomainAlpha trains both frameworks on train and reports their
// end-to-end estimation error on test.
func singleDomainAlpha(p params, codecName string, train []*field.Field, test *field.Field) (alphaFXRZ, alphaCAROL float64, err error) {
	fx, ca, err := trainBoth(p, codecName, train)
	if err != nil {
		return 0, 0, err
	}
	targets, err := achievableTargets(fx.fw.Codec(), test, p, 5)
	if err != nil {
		return 0, 0, err
	}
	alphaFXRZ, err = endToEndAlpha(test, targets, fx.fw.CompressToRatio)
	if err != nil {
		return 0, 0, err
	}
	alphaCAROL, err = endToEndAlpha(test, targets, ca.fw.CompressToRatio)
	return alphaFXRZ, alphaCAROL, err
}

// achievableTargets samples n target ratios the compressor can actually
// reach on f: its full-compressor curve at interior points of the sweep.
func achievableTargets(codec compressor.Codec, f *field.Field, p params, n int) ([]float64, error) {
	step := max((len(p.sweep)-2)/n, 1)
	var rels []float64
	for i := 1; i < len(p.sweep)-1 && len(rels) < n; i += step {
		rels = append(rels, p.sweep[i])
	}
	return secre.Curve(&secre.FullEstimator{Codec: codec}, f, compressor.AbsBounds(f, rels))
}

// endToEndAlpha measures the mean percentage gap between requested and
// achieved compression ratios.
func endToEndAlpha(f *field.Field, targets []float64, compressTo func(*field.Field, float64) ([]byte, float64, error)) (float64, error) {
	var acc stats.Accumulator
	for _, target := range targets {
		_, achieved, err := compressTo(f, target)
		if err != nil {
			return 0, err
		}
		acc.Add(stats.PctError(achieved, target))
	}
	return acc.Mean(), nil
}
