package experiments

import (
	"fmt"
	"io"

	"carol/internal/codecs"
	"carol/internal/stats"
)

// RunFig10 reproduces Figure 10: the real compression ratio, the SECRE
// estimate, and the CAROL-calibrated estimate across the error-bound sweep
// on Miranda viscosity, for all four compressors.
func RunFig10(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Fig 10", "Real vs SECRE vs calibrated ratio, Miranda viscosity")
	f, err := p.genField("miranda", "viscosity", 0)
	if err != nil {
		return err
	}
	for _, name := range codecs.Names {
		c, err := measureSweep(name, f, p.sweep)
		if err != nil {
			return err
		}
		cals, model, _, err := c.calibrate(4)
		if err != nil {
			return err
		}
		mode := "under"
		if model.Overestimates() {
			mode = "over"
		}
		fmt.Fprintf(w, "\n[%s] SECRE %sestimates; α raw %.1f%% -> calibrated %.1f%%\n",
			name, mode, stats.EstimationError(c.raw, c.truth), stats.EstimationError(cals, c.truth))
		tw := newTable(w)
		fmt.Fprintln(tw, "rel_eb\treal\tSECRE\tcalibrated")
		for i, rel := range p.sweep {
			fmt.Fprintf(tw, "%.2e\t%.2f\t%.2f\t%.2f\n", rel, c.truth[i], c.raw[i], cals[i])
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
