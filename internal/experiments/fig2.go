package experiments

import (
	"fmt"
	"io"
	"time"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/stats"
)

// RunFig2 reproduces Figure 2: the compression function f(e) estimated by
// running the full compressor (the FXRZ approach) and by SECRE, on the
// Miranda viscosity field, for all four compressors — together with the
// time each estimation sweep takes. Codecs with a search surrogate (the one
// a fixed-ratio search root-finds on) get a third column, f_search(e), timed
// with its binding to the field.
func RunFig2(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Fig 2", "f(e) estimated by full compressor (FXRZ) vs SECRE, Miranda viscosity")
	f, err := p.genField("miranda", "viscosity", 0)
	if err != nil {
		return err
	}
	for _, name := range codecs.Names {
		codec, err := codecs.ByName(name)
		if err != nil {
			return err
		}
		sur, err := codecs.SurrogateByName(name)
		if err != nil {
			return err
		}
		fullRatios, fullTime, err := sweep(f, p.sweep, func(eb float64) (float64, error) {
			stream, err := codec.Compress(f, eb)
			return compressor.Ratio(f, stream), err
		})
		if err != nil {
			return err
		}
		estRatios, estTime, err := sweep(f, p.sweep, func(eb float64) (float64, error) { return sur.EstimateRatio(f, eb) })
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n[%s] sweep of %d bounds: FXRZ(full) %s, SECRE %s (%.1fx speedup), α=%.1f%%",
			name, len(p.sweep), ms(fullTime), ms(estTime),
			float64(fullTime)/float64(estTime),
			stats.EstimationError(estRatios, fullRatios))
		bindStart := time.Now()
		var searchRatios []float64
		if search := codecs.SearchSurrogate(name, f); search != nil {
			bind := time.Since(bindStart)
			ratios, d, err := sweep(f, p.sweep, search)
			if err != nil {
				return err
			}
			searchRatios, d = ratios, d+bind
			fmt.Fprintf(w, "; search %s (%.1fx), α=%.1f%%", ms(d),
				float64(fullTime)/float64(d), stats.EstimationError(searchRatios, fullRatios))
		}
		fmt.Fprintln(w)
		tw := newTable(w)
		fmt.Fprint(tw, "rel_eb\tf_FXRZ(e)\tf_SECRE(e)")
		if searchRatios != nil {
			fmt.Fprint(tw, "\tf_search(e)")
		}
		for i, rel := range p.sweep {
			fmt.Fprintf(tw, "\n%.2e\t%.2f\t%.2f", rel, fullRatios[i], estRatios[i])
			if searchRatios != nil {
				fmt.Fprintf(tw, "\t%.2f", searchRatios[i])
			}
		}
		fmt.Fprintln(tw)
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// sweep evaluates ratio at each value-range-relative bound in rels, timed.
func sweep(f *field.Field, rels []float64, ratio func(eb float64) (float64, error)) ([]float64, time.Duration, error) {
	out := make([]float64, len(rels))
	d, err := timeIt(func() error {
		for i, rel := range rels {
			r, err := ratio(compressor.AbsBound(f, rel))
			if err != nil {
				return err
			}
			out[i] = r
		}
		return nil
	})
	return out, d, err
}
