package experiments

import (
	"fmt"
	"io"

	"carol/internal/stats"
)

// RunTable5 reproduces Table 5: the effectiveness of calibration for SZ3
// and SPERR — speedup over the full compressor and estimation error α with
// no calibration and with 3, 4 and 5 calibration points.
func RunTable5(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Table 5", "Calibration effectiveness (S = speedup over full compression sweep)")
	for _, codecName := range []string{"sz3", "sperr"} {
		fmt.Fprintf(w, "\n[%s]\n", codecName)
		tw := newTable(w)
		fmt.Fprintln(tw, "dataset\tS(0pt)\tα(0pt)\tS(3pt)\tα(3pt)\tS(4pt)\tα(4pt)\tS(5pt)\tα(5pt)")
		var avgS [4]float64
		var avgA [4]float64
		rows := 0
		for _, row := range collectionDatasets {
			f, err := p.genField(row.ds, row.field, 0)
			if err != nil {
				return err
			}
			c, err := measureSweep(codecName, f, p.sweep)
			if err != nil {
				return err
			}
			fmt.Fprint(tw, row.ds)
			for pi, nCal := range []int{0, 3, 4, 5} {
				// S(kpt) is the full sweep over the surrogate sweep plus the
				// k-point calibration (its fit and the correction).
				ests, estTime := c.raw, c.rawTime
				if nCal > 0 {
					cals, _, calTime, err := c.calibrate(nCal)
					if err != nil {
						return err
					}
					ests, estTime = cals, c.rawTime+calTime
				}
				speedup := float64(c.fullTime) / float64(estTime)
				alpha := stats.EstimationError(ests, c.truth)
				avgS[pi] += speedup
				avgA[pi] += alpha
				fmt.Fprintf(tw, "\t%.1fx\t%.1f%%", speedup, alpha)
			}
			fmt.Fprintln(tw)
			rows++
		}
		fmt.Fprint(tw, "average")
		for pi := range avgS {
			fmt.Fprintf(tw, "\t%.1fx\t%.1f%%", avgS[pi]/float64(rows), avgA[pi]/float64(rows))
		}
		fmt.Fprintln(tw)
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
