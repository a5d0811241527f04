package experiments

import (
	"fmt"
	"io"

	"carol/internal/codecs"
	"carol/internal/field"
	"carol/internal/stats"
)

// multiDomainTrain assembles the paper's multi-domain training corpus:
// 4 NYX fields, 5 Miranda fields, plus the HCCI and MRS simulations.
// (Miranda velocity-x and diffusivity are held out for testing.)
func multiDomainTrain(p params) ([]*field.Field, error) {
	var out []*field.Field
	add := func(ds string, names ...string) error {
		for _, n := range names {
			f, err := p.genField(ds, n, 0)
			if err != nil {
				return err
			}
			out = append(out, f)
		}
		return nil
	}
	if err := add("nyx", "baryon_density", "dark_matter_density", "temperature", "velocity_x"); err != nil {
		return nil, err
	}
	if err := add("miranda", "density", "pressure", "velocityy", "velocityz", "viscosity"); err != nil {
		return nil, err
	}
	if err := add("hcci", "temperature"); err != nil {
		return nil, err
	}
	if err := add("mrs", "magnetic_reconnection"); err != nil {
		return nil, err
	}
	return out, nil
}

// RunFig7 reproduces Figure 7: with models trained on the multi-domain
// corpus, request a range of compression ratios on the held-out Miranda
// velocity-x field and plot what FXRZ and CAROL actually achieve.
func RunFig7(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Fig 7", "Multi-domain: requested vs achieved ratio, Miranda velocity-x")
	train, err := multiDomainTrain(p)
	if err != nil {
		return err
	}
	test, err := p.genField("miranda", "velocityx", 0)
	if err != nil {
		return err
	}
	for _, name := range codecs.Names {
		fx, ca, err := trainBoth(p, name, train)
		if err != nil {
			return err
		}
		targets, err := achievableTargets(fx.fw.Codec(), test, p, 6)
		if err != nil {
			return err
		}
		tw := newTable(w)
		fmt.Fprintf(w, "\n[%s]\n", name)
		fmt.Fprintln(tw, "requested f\tachieved f_FXRZ\tachieved f_CAROL")
		var accF, accC stats.Accumulator
		for _, target := range targets {
			_, gotF, err := fx.fw.CompressToRatio(test, target)
			if err != nil {
				return err
			}
			_, gotC, err := ca.fw.CompressToRatio(test, target)
			if err != nil {
				return err
			}
			accF.Add(stats.PctError(gotF, target))
			accC.Add(stats.PctError(gotC, target))
			fmt.Fprintf(tw, "%.2f\t%.2f\t%.2f\n", target, gotF, gotC)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(w, "α: FXRZ %.1f%%, CAROL %.1f%%\n", accF.Mean(), accC.Mean())
	}
	return nil
}

// RunFig8 reproduces Figure 8: end-to-end setup time (data collection +
// model training) of FXRZ and CAROL per compressor on the multi-domain
// corpus, with speedups.
func RunFig8(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Fig 8", "Setup time (collection + training): FXRZ vs CAROL")
	train, err := multiDomainTrain(p)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "compressor\tFXRZ collect\tFXRZ train\tCAROL collect\tCAROL train\tsetup speedup")
	for _, name := range codecs.Names {
		fx, ca, err := trainBoth(p, name, train)
		if err != nil {
			return err
		}
		fxTotal := fx.collect.Duration + fx.train.Duration
		caTotal := ca.collect.Duration + ca.train.Duration
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.1fx\n",
			name, ms(fx.collect.Duration), ms(fx.train.Duration),
			ms(ca.collect.Duration), ms(ca.train.Duration),
			float64(fxTotal)/float64(caTotal))
	}
	return tw.Flush()
}
