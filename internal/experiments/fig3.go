package experiments

import (
	"fmt"
	"io"

	"carol/internal/field"
	"carol/internal/stats"
)

// RunFig3 reproduces Figure 3: SECRE's estimation-error curve α(e) on two
// datasets with SPERR, before and after CAROL's calibration. The paper uses
// Miranda density and the Klacansky "duct" flow; the duct stand-in here is
// the HCCI temperature field (see EXPERIMENTS.md).
func RunFig3(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Fig 3", "SECRE estimation error and calibration, SPERR")
	density, err := p.genField("miranda", "density", 0)
	if err != nil {
		return err
	}
	duct, err := p.genField("hcci", "temperature", 0)
	if err != nil {
		return err
	}
	for _, f := range []*field.Field{density, duct} {
		if err := fig3One(w, p, f); err != nil {
			return err
		}
	}
	return nil
}

func fig3One(w io.Writer, p params, f *field.Field) error {
	c, err := measureSweep("sperr", f, p.sweep)
	if err != nil {
		return err
	}
	// Calibrate with 4 points (the paper's recommendation for SPERR is 3,
	// 4 gives headroom on SZ3; Figure 3 plots the constructed α' curve).
	cals, model, _, err := c.calibrate(4)
	if err != nil {
		return err
	}
	mode := "underestimates"
	if model.Overestimates() {
		mode = "overestimates"
	}
	fmt.Fprintf(w, "\n[%s] SECRE %s; α %.1f%% -> %.1f%% after 4-point calibration\n",
		f.Name, mode,
		stats.EstimationError(c.raw, c.truth),
		stats.EstimationError(cals, c.truth))
	tw := newTable(w)
	fmt.Fprintln(tw, "rel_eb\tf(e) true\tα(e)%\tα'(e)% (calibrated)")
	for i, rel := range p.sweep {
		fmt.Fprintf(tw, "%.2e\t%.2f\t%.1f\t%.1f\n",
			rel, c.truth[i],
			stats.PctError(c.raw[i], c.truth[i]),
			stats.PctError(cals[i], c.truth[i]))
	}
	return tw.Flush()
}
