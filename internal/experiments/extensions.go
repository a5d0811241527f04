package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/core"
	"carol/internal/field"
	"carol/internal/fraz"
	"carol/internal/model"
	"carol/internal/sperr"
	"carol/internal/stats"
)

// The Ext* experiments go beyond the paper's artifacts: they evaluate the
// extensions this repository builds on top of the reproduced system (the
// paper's own future-work directions plus the FRaZ trial-and-error
// baseline and the cuSZp-style szp codec).

// RunExtModels compares the random forest against the alternative model
// (gradient-boosted trees) on the single-domain protocol: training time and
// end-to-end ratio error.
func RunExtModels(w io.Writer, s Scale) error {
	p := paramsFor(s)
	backends := model.KnownBackends()
	header(w, "Ext 1", "Alternative models (paper future work): "+strings.Join(backends, " vs ")+", SZx on Miranda")
	train, err := datasetFields(p, "miranda", 4)
	if err != nil {
		return err
	}
	test, err := p.genField("miranda", "velocityx", 0)
	if err != nil {
		return err
	}
	codec, err := codecs.ByName("szx")
	if err != nil {
		return err
	}
	targets, err := achievableTargets(codec, test, p, 5)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "model\ttrain time\tα")
	for _, backend := range backends {
		fw, err := core.New("szx", core.Config{
			ErrorBounds: p.sweep, BOIterations: p.boIters,
			ForestCap: p.forestCap, Seed: p.seed, Model: backend,
		})
		if err != nil {
			return err
		}
		if _, err := fw.Collect(train); err != nil {
			return err
		}
		ts, err := fw.Train()
		if err != nil {
			return err
		}
		alpha, err := endToEndAlpha(test, targets, fw.CompressToRatio)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%.1f%%\n", backend, ms(ts.Duration), alpha)
	}
	return tw.Flush()
}

// RunExtFraz compares a trained CAROL framework against the FRaZ-style
// trial-and-error baseline, against the search started from CAROL's
// prediction and — for the codecs with a search surrogate (SZx, ZFP, SZ3) —
// against that search run on the surrogate first: fixed-ratio accuracy and
// the number of compressor executions each needs per request.
func RunExtFraz(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Ext 2", "CAROL vs FRaZ trial-and-error (reference [24]) on Miranda")
	train, err := datasetFields(p, "miranda", 4)
	if err != nil {
		return err
	}
	test, err := p.genField("miranda", "velocityx", 0)
	if err != nil {
		return err
	}
	for _, name := range []string{"sz3", "szx", "zfp"} {
		if err := extFraz(w, p, name, train, test); err != nil {
			return err
		}
	}
	return nil
}

// extFraz is Ext 2 for one codec.
func extFraz(w io.Writer, p params, name string, train []*field.Field, test *field.Field) error {
	codec, err := codecs.ByName(name)
	if err != nil {
		return err
	}
	fw, err := core.New(name, core.Config{
		ErrorBounds: p.sweep, BOIterations: p.boIters,
		ForestCap: p.forestCap, Seed: p.seed,
	})
	if err != nil {
		return err
	}
	cs, err := fw.Collect(train)
	if err != nil {
		return err
	}
	ts, err := fw.Train()
	if err != nil {
		return err
	}
	targets, err := achievableTargets(codec, test, p, 5)
	if err != nil {
		return err
	}
	// search is a fraz search the way a resolver sets it up; it is timed
	// with what it needs beyond the trained model (the prediction, binding
	// the surrogate to the field).
	search := func(seeded, surrogate bool) func(float64) (float64, int, error) {
		return func(target float64) (float64, int, error) {
			var opts fraz.Options
			if seeded { // what carolserve does for ratio=
				seed, err := fw.PredictErrorBound(test, target)
				if err != nil {
					return 0, 0, err
				}
				opts.Seed = seed
			}
			if surrogate {
				opts.Surrogate = codecs.SearchSurrogate(name, test)
			}
			res, err := fraz.Search(codec, test, target, opts)
			return res.Achieved, res.Runs, err
		}
	}
	type resolver struct {
		name, note string
		run        func(target float64) (achieved float64, runs int, err error)
		alpha      stats.Accumulator
		runs       int
		time       time.Duration
	}
	resolvers := []*resolver{
		{name: "CAROL", note: fmt.Sprintf("plus one-time setup %s", ms(cs.Duration+ts.Duration)),
			run: func(target float64) (float64, int, error) {
				_, achieved, err := fw.CompressToRatio(test, target)
				return achieved, 1, err // one compression per request
			}},
		{name: "FRaZ", note: "no setup", run: search(false, false)},
		{name: "seeded", note: "CAROL's bound starts the FRaZ search; same setup", run: search(true, false)},
	}
	if codecs.SearchSurrogate(name, test) != nil {
		resolvers = append(resolvers, &resolver{name: "+surrogate", run: search(true, true),
			note: "the seeded search, root-finding on the SECRE surrogate before it compresses"})
	}
	fmt.Fprintf(w, "[%s]\n", name)
	tw := newTable(w)
	fmt.Fprint(tw, "target f")
	for _, r := range resolvers {
		fmt.Fprintf(tw, "\t%s achieved\t%s runs", r.name, r.name)
	}
	fmt.Fprintln(tw)
	for _, target := range targets {
		fmt.Fprintf(tw, "%.2f", target)
		for _, r := range resolvers {
			start := time.Now()
			achieved, runs, err := r.run(target)
			if err != nil {
				return err
			}
			r.time += time.Since(start)
			r.runs += runs
			r.alpha.Add(stats.PctError(achieved, target))
			fmt.Fprintf(tw, "\t%.2f\t%d", achieved, runs)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, r := range resolvers {
		fmt.Fprintf(w, "%-11s α %.1f%%, %d compressor runs, %s (%s)\n", r.name+":", r.alpha.Mean(), r.runs, ms(r.time), r.note)
	}
	return nil
}

// RunExtSZP extends the Figure 2 comparison to the szp extension codec:
// surrogate accuracy and speedup for the cuSZp-style compressor.
func RunExtSZP(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Ext 3", "SZP extension codec: surrogate accuracy and sweep speedup")
	f, err := p.genField("miranda", "viscosity", 0)
	if err != nil {
		return err
	}
	codec, err := codecs.ByName("szp")
	if err != nil {
		return err
	}
	sur, err := codecs.SurrogateByName("szp")
	if err != nil {
		return err
	}
	truths := make([]float64, len(p.sweep))
	fullTime, err := timeIt(func() error {
		for i, rel := range p.sweep {
			stream, err := codec.Compress(f, compressor.AbsBound(f, rel))
			if err != nil {
				return err
			}
			truths[i] = compressor.Ratio(f, stream)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ests := make([]float64, len(p.sweep))
	estTime, err := timeIt(func() error {
		for i, rel := range p.sweep {
			ests[i], err = sur.EstimateRatio(f, compressor.AbsBound(f, rel))
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sweep: full %s, surrogate %s (%.1fx), α=%.1f%%\n",
		ms(fullTime), ms(estTime), float64(fullTime)/float64(estTime),
		stats.EstimationError(ests, truths))
	tw := newTable(w)
	fmt.Fprintln(tw, "rel_eb\tf(e) real\tf(e) surrogate")
	for i, rel := range p.sweep {
		fmt.Fprintf(tw, "%.2e\t%.2f\t%.2f\n", rel, truths[i], ests[i])
	}
	return tw.Flush()
}

// RunExtImportance prints the trained forest's feature importances,
// validating FXRZ's claim that the five compressibility features (plus the
// requested ratio) carry predictive signal.
func RunExtImportance(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Ext 5", "Feature importance of the trained forest (FXRZ's five features + log ratio)")
	train, err := multiDomainTrain(p)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "compressor\tmean\trange\tmnd\tmld\tmsd\tlog-ratio")
	for _, name := range codecs.Names {
		fw, err := core.New(name, core.Config{
			ErrorBounds: p.sweep, BOIterations: p.boIters,
			ForestCap: p.forestCap, Seed: p.seed,
		})
		if err != nil {
			return err
		}
		if _, err := fw.Collect(train); err != nil {
			return err
		}
		if _, err := fw.Train(); err != nil {
			return err
		}
		imp, err := fw.FeatureImportance()
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s", name)
		for _, v := range imp {
			fmt.Fprintf(tw, "\t%.2f", v)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "note: the requested ratio dominates (the model mostly inverts the per-field")
	fmt.Fprintln(w, "ratio curve); the data features carry the cross-field corrections, growing in")
	fmt.Fprintln(w, "weight as the training corpus becomes more heterogeneous.")
	return nil
}

// RunExtProgressive demonstrates SPERR's embedded-stream property: decoding
// prefixes of one compressed stream yields progressively better
// reconstructions, without recompression.
func RunExtProgressive(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Ext 6", "SPERR progressive decoding: quality vs stream prefix")
	f, err := p.genField("miranda", "density", 0)
	if err != nil {
		return err
	}
	codec, err := codecs.ByName("sperr")
	if err != nil {
		return err
	}
	eb := compressor.AbsBound(f, 1e-4)
	stream, err := codec.Compress(f, eb)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "prefix\tPSNR (dB)\tNRMSE")
	for _, frac := range []float64{0.05, 0.1, 0.25, 0.5, 1.0} {
		g, err := sperr.DecompressProgressive(stream, frac)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%.0f%%\t%.1f\t%.2e\n", 100*frac, compressor.PSNR(f, g), compressor.NRMSE(f, g))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "one %d-byte stream serves every quality level\n", len(stream))
	return nil
}

// RunExtFeedback measures the on-the-fly improvement loop (paper future
// work): end-to-end α on an unseen data regime before and after feeding
// outcome observations back into the model.
func RunExtFeedback(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Ext 4", "Feedback loop (paper future work): α on an unseen regime over feedback rounds")
	train, err := datasetFields(p, "miranda", 3)
	if err != nil {
		return err
	}
	fw, err := core.New("szx", core.Config{
		ErrorBounds: p.sweep, BOIterations: p.boIters,
		ForestCap: p.forestCap, Seed: p.seed,
		Feedback: true, FeedbackEvery: 5,
	})
	if err != nil {
		return err
	}
	if _, err := fw.Collect(train); err != nil {
		return err
	}
	if _, err := fw.Train(); err != nil {
		return err
	}
	// Unseen regime: NYX log-normal density.
	test, err := p.genField("nyx", "baryon_density", 0)
	if err != nil {
		return err
	}
	codec := fw.Codec()
	targets, err := achievableTargets(codec, test, p, 3)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "round\tα on unseen regime")
	for round := 0; round < 5; round++ {
		var acc stats.Accumulator
		for _, target := range targets {
			_, got, err := fw.CompressToRatio(test, target) // records feedback
			if err != nil {
				return err
			}
			acc.Add(stats.PctError(got, target))
		}
		fmt.Fprintf(tw, "%d\t%.1f%%\n", round, acc.Mean())
	}
	return tw.Flush()
}
