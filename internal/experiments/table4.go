package experiments

import (
	"fmt"
	"io"
	"time"

	"carol/internal/codecs"
)

// collectionDatasets are the five dataset rows of Tables 4 and 5.
var collectionDatasets = []struct{ ds, field string }{
	{"miranda", "viscosity"},
	{"nyx", "baryon_density"},
	{"hurricane", "P"},
	{"cesm", "TS"},
	{"hcci", "temperature"}, // the paper's "Klacansky" row
}

// RunTable4 reproduces Table 4: training-data collection time per dataset
// using the full compressor vs SECRE surrogate estimation, with per-codec
// speedups. Each cell times one sweep's secre.Curve (measureSweep).
func RunTable4(w io.Writer, s Scale) error {
	p := paramsFor(s)
	header(w, "Table 4", "Collection time: full compressor (full) vs SECRE estimation (est)")
	tw := newTable(w)
	fmt.Fprint(tw, "dataset")
	for _, name := range codecs.Names {
		fmt.Fprintf(tw, "\t%s full\t%s est", name, name)
	}
	fmt.Fprintln(tw)

	sumFull := make(map[string]time.Duration)
	sumEst := make(map[string]time.Duration)
	for _, row := range collectionDatasets {
		f, err := p.genField(row.ds, row.field, 0)
		if err != nil {
			return err
		}
		fmt.Fprint(tw, row.ds)
		for _, name := range codecs.Names {
			c, err := measureSweep(name, f, p.sweep)
			if err != nil {
				return err
			}
			sumFull[name] += c.fullTime
			sumEst[name] += c.rawTime
			fmt.Fprintf(tw, "\t%s\t%s", ms(c.fullTime), ms(c.rawTime))
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "speedup")
	for _, name := range codecs.Names {
		fmt.Fprintf(tw, "\t%.1fx\t", float64(sumFull[name])/float64(sumEst[name]))
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}
