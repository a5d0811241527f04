// Package experiments regenerates every table and figure of the CAROL
// paper's evaluation (§5 analysis figures and the §6 evaluation artifacts).
// Each Run* function prints the corresponding rows/series in a
// paper-comparable text format; cmd/carolbench exposes them on the command
// line and EXPERIMENTS.md records measured-vs-paper values.
//
// Absolute numbers differ from the paper (scaled-down synthetic datasets,
// pure-Go compressors, no GPU); the *shapes* — who wins, by what rough
// factor, where the crossovers sit — are the reproduction target. See
// DESIGN.md §2 and §5.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/trainset"
)

// Scale selects experiment sizing.
type Scale int

const (
	// ScaleQuick runs every experiment in seconds-to-a-minute at reduced
	// resolution; it is the default for cmd/carolbench and the only scale
	// exercised by tests.
	ScaleQuick Scale = iota
	// ScalePaper uses larger fields and the paper's 35-point sweeps.
	ScalePaper
)

// ParseScale converts a -scale flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "", "quick":
		return ScaleQuick, nil
	case "paper":
		return ScalePaper, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (quick|paper)", s)
	}
}

// params bundles the per-scale sizing knobs.
type params struct {
	dims3D     dataset.Options // dims for 3D dataset fields (model experiments)
	timingDims dataset.Options // larger dims for timing experiments
	sweep      []float64       // relative error-bound sweep
	boIters    int
	gridCfgs   int
	forestCap  int
	seed       uint64
}

func paramsFor(s Scale) params {
	switch s {
	case ScalePaper:
		return params{
			dims3D:     dataset.Options{Nx: 96, Ny: 96, Nz: 96},
			timingDims: dataset.Options{Nx: 160, Ny: 160, Nz: 160},
			sweep:      trainset.GeometricBounds(1e-4, 1e-1, 35),
			boIters:    8,
			gridCfgs:   10,
			forestCap:  200, // uncapped 1200-tree CV folds would dominate runtime
			seed:       1,
		}
	default:
		return params{
			dims3D:     dataset.Options{Nx: 40, Ny: 40, Nz: 40},
			timingDims: dataset.Options{Nx: 96, Ny: 96, Nz: 96},
			sweep:      trainset.GeometricBounds(1e-4, 1e-1, 10),
			boIters:    6,
			gridCfgs:   10,
			forestCap:  20,
			seed:       1,
		}
	}
}

// genField generates one dataset field at the experiment's 3D sizing
// (2D datasets keep their aspect but shrink accordingly).
func (p params) genField(ds, fieldName string, step int) (*field.Field, error) {
	return genAt(p.dims3D, ds, fieldName, step)
}

// genTimingField generates a field at the larger timing sizing, so that
// feature-extraction and compression timings rise above scheduler noise.
func (p params) genTimingField(ds, fieldName string, step int) (*field.Field, error) {
	return genAt(p.timingDims, ds, fieldName, step)
}

func genAt(dims dataset.Options, ds, fieldName string, step int) (*field.Field, error) {
	opts := dims
	opts.TimeStep = step
	if ds == "cesm" {
		opts = dataset.Options{Nx: dims.Nx * 4, Ny: dims.Ny * 2, TimeStep: step}
	}
	return dataset.Generate(ds, fieldName, opts)
}

// timeIt measures fn.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// newTable returns a tabwriter for aligned output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// ms formats a duration in milliseconds with sensible precision.
func ms(d time.Duration) string {
	v := float64(d.Microseconds()) / 1000
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.1fs", v/1000)
	case v >= 10:
		return fmt.Sprintf("%.0fms", v)
	default:
		return fmt.Sprintf("%.2fms", v)
	}
}

// header prints an experiment banner.
func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s: %s ===\n", id, title)
}

// Runner is a named experiment entry point.
type Runner struct {
	ID    string
	Title string
	Run   func(w io.Writer, s Scale) error
}

// Registry lists every reproducible artifact in paper order.
func Registry() []Runner {
	return []Runner{
		{"table2", "Dataset summary", RunTable2},
		{"fig2", "FXRZ vs SECRE compression-function estimation (Miranda viscosity)", RunFig2},
		{"fig3", "SECRE estimation error and calibration (SPERR)", RunFig3},
		{"fig5a", "Training time vs training-set size", RunFig5a},
		{"fig5b", "n_estimators trajectory over BO iterations", RunFig5b},
		{"fig6", "Feature extraction time vs compressor time", RunFig6},
		{"table3", "Single-domain estimation error (NYX fields)", RunTable3},
		{"fig7", "Multi-domain requested vs achieved ratio (Miranda velocity-x)", RunFig7},
		{"fig8", "Setup time: FXRZ vs CAROL", RunFig8},
		{"fig9", "Feature extraction time per dataset: FXRZ vs CAROL", RunFig9},
		{"table4", "Collection time: full compressor vs SECRE", RunTable4},
		{"table5", "Calibration effectiveness (SZ3, SPERR)", RunTable5},
		{"fig10", "Real vs SECRE vs calibrated ratio curves (Miranda viscosity)", RunFig10},
		{"ext1", "Extension: alternative models (rf/boost)", RunExtModels},
		{"ext2", "Extension: CAROL vs FRaZ trial-and-error", RunExtFraz},
		{"ext3", "Extension: SZP codec surrogate", RunExtSZP},
		{"ext4", "Extension: feedback loop", RunExtFeedback},
		{"ext5", "Extension: model feature importance", RunExtImportance},
		{"ext6", "Extension: SPERR progressive decoding", RunExtProgressive},
		{"thr", "Extension: codec throughput through the block pipeline (MB/s)",
			func(w io.Writer, s Scale) error { return RunThroughput(w, s, 0) }},
	}
}

// Find returns the runner with the given id.
func Find(id string) (Runner, error) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, s Scale) error {
	for _, r := range Registry() {
		if err := r.Run(w, s); err != nil {
			return fmt.Errorf("experiments: %s: %w", r.ID, err)
		}
	}
	return nil
}

// RunTable2 prints the dataset summary (Table 2 of the paper).
func RunTable2(w io.Writer, s Scale) error {
	header(w, "Table 2", "Dataset summary (procedural stand-ins; paper dims in parentheses)")
	p := paramsFor(s)
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\t#fields\tsteps\tdims (this run)\tpaper dims\tdomain")
	for _, spec := range dataset.Summary() {
		f, err := p.genField(spec.Name, spec.Fields[0], 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%dx%dx%d\t%s\t%s\n",
			spec.Name, len(spec.Fields), spec.TimeSteps, f.Nx, f.Ny, f.Nz, spec.PaperDims, spec.Domain)
	}
	return tw.Flush()
}
