package experiments

import (
	"fmt"
	"io"
	"time"

	"carol/internal/codecs"
	"carol/internal/stats"
)

// RunFig2 reproduces Figure 2: the compression function f(e) estimated by
// running the full compressor (the FXRZ approach) and by SECRE, on the
// Miranda viscosity field, for all four compressors — together with the
// time each estimation sweep takes. Codecs with a search surrogate (the one
// a fixed-ratio search root-finds on) get a third column, f_search(e), timed
// with its binding to the field. Every column sweeps bounds converted from
// one range scan, and SECRE is bound to the field once per sweep, as
// CAROL's collection binds it (measureSweep).
func RunFig2(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Fig 2", "f(e) estimated by full compressor (FXRZ) vs SECRE, Miranda viscosity")
	f, err := p.genField("miranda", "viscosity", 0)
	if err != nil {
		return err
	}
	for _, name := range codecs.Names {
		c, err := measureSweep(name, f, p.sweep)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n[%s] sweep of %d bounds: FXRZ(full) %s, SECRE %s (%.1fx speedup), α=%.1f%%",
			name, len(p.sweep), ms(c.fullTime), ms(c.rawTime),
			float64(c.fullTime)/float64(c.rawTime),
			stats.EstimationError(c.raw, c.truth))
		var searchRatios []float64
		searchStart := time.Now()
		if search := codecs.SearchSurrogate(name, f); search != nil {
			searchRatios = make([]float64, len(c.ebs))
			for i, eb := range c.ebs {
				if searchRatios[i], err = search(eb); err != nil {
					return err
				}
			}
			d := time.Since(searchStart)
			fmt.Fprintf(w, "; search %s (%.1fx), α=%.1f%%", ms(d),
				float64(c.fullTime)/float64(d), stats.EstimationError(searchRatios, c.truth))
		}
		fmt.Fprintln(w)
		tw := newTable(w)
		fmt.Fprint(tw, "rel_eb\tf_FXRZ(e)\tf_SECRE(e)")
		if searchRatios != nil {
			fmt.Fprint(tw, "\tf_search(e)")
		}
		for i, rel := range p.sweep {
			fmt.Fprintf(tw, "\n%.2e\t%.2f\t%.2f", rel, c.truth[i], c.raw[i])
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
