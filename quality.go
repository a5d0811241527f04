package carol

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"carol/internal/compressor"
)

// Reconstruction quality reports for lossy compression: the QC artifact a
// data-management workflow attaches to every compressed field. Beyond the
// scalar fidelity metrics (max error, NRMSE, PSNR, Pearson), the report
// localizes the worst z-slab and checks the residuals for structure:
// error-bounded compressors should leave noise-like residuals, and residual
// autocorrelation flags the blocking or smoothing artifacts a downstream
// analysis would care about.

// qualityBins is the resolution of the report's error histogram.
const qualityBins = 10

// QualityReport summarizes reconstruction fidelity: scalar metrics, bound
// violations, an error histogram, worst-slab localization and residual
// autocorrelation. See AnalyzeQuality.
type QualityReport struct {
	// Samples is the number of grid points compared.
	Samples int
	// MaxAbsErr, NRMSE, PSNR, Pearson are the scalar fidelity metrics.
	MaxAbsErr float64
	NRMSE     float64
	PSNR      float64
	Pearson   float64
	// Bound is the error bound the stream claimed (0 if unknown); Violations
	// counts samples exceeding it (after float32 slack).
	Bound      float64
	Violations int
	// Histogram counts |error| in qualityBins (10) equal-width bins spanning
	// [0, MaxAbsErr].
	Histogram [qualityBins]int
	// WorstSlab is the z-slab (or y-row for 2D data) with the largest RMS
	// error, with its RMS value — localizing damage for triage.
	WorstSlab    int
	WorstSlabRMS float64
	// ResidualAutocorr holds the lag-1, lag-2 and lag-4 autocorrelation of
	// the residual stream along x. Values near 0 mean noise-like residuals;
	// large magnitudes indicate structured artifacts.
	ResidualAutocorr [3]float64
}

// AnalyzeQuality produces the QC report for a reconstruction. Pass the
// absolute error bound the stream was produced with (0 if unknown;
// violations are then not counted).
func AnalyzeQuality(orig, recon *Field, bound float64) (*QualityReport, error) {
	if orig.Nx != recon.Nx || orig.Ny != recon.Ny || orig.Nz != recon.Nz {
		return nil, errors.New("quality: dimension mismatch")
	}
	if orig.Len() == 0 {
		return nil, errors.New("quality: empty field")
	}
	r := &QualityReport{
		Samples:   orig.Len(),
		MaxAbsErr: compressor.MaxAbsErr(orig, recon),
		NRMSE:     compressor.NRMSE(orig, recon),
		PSNR:      compressor.PSNR(orig, recon),
		Pearson:   compressor.Pearson(orig, recon),
		Bound:     bound,
	}
	resid := make([]float64, orig.Len())
	for i := range orig.Data {
		resid[i] = float64(recon.Data[i]) - float64(orig.Data[i])
	}
	// Bound violations (with the same float32 slack CheckBound uses).
	if bound > 0 {
		var maxAbs float64
		for _, v := range orig.Data {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		slack := bound*1e-5 + maxAbs*math.Pow(2, -22)
		for _, d := range resid {
			if math.Abs(d) > bound+slack {
				r.Violations++
			}
		}
	}
	// Histogram of |error|.
	if r.MaxAbsErr > 0 {
		for _, d := range resid {
			bin := int(math.Abs(d) / r.MaxAbsErr * qualityBins)
			if bin >= qualityBins {
				bin = qualityBins - 1
			}
			r.Histogram[bin]++
		}
	} else {
		r.Histogram[0] = len(resid)
	}
	// Worst slab.
	slabCount, slabSize := orig.Nz, orig.Nx*orig.Ny
	if slabCount == 1 {
		slabCount, slabSize = orig.Ny, orig.Nx
	}
	worst, worstRMS := 0, -1.0
	for s := 0; s < slabCount; s++ {
		var sum float64
		for i := s * slabSize; i < (s+1)*slabSize; i++ {
			sum += resid[i] * resid[i]
		}
		rms := math.Sqrt(sum / float64(slabSize))
		if rms > worstRMS {
			worst, worstRMS = s, rms
		}
	}
	r.WorstSlab, r.WorstSlabRMS = worst, worstRMS
	// Residual autocorrelation at lags 1, 2, 4 along the x direction.
	for li, lag := range []int{1, 2, 4} {
		r.ResidualAutocorr[li] = autocorrX(resid, orig.Nx, lag)
	}
	return r, nil
}

// autocorrX computes the lag-k autocorrelation of the residuals along x,
// never crossing row boundaries.
func autocorrX(resid []float64, nx, lag int) float64 {
	if lag >= nx {
		return 0
	}
	var mean float64
	for _, d := range resid {
		mean += d
	}
	mean /= float64(len(resid))
	var num, den float64
	rows := len(resid) / nx
	for row := 0; row < rows; row++ {
		base := row * nx
		for x := 0; x < nx; x++ {
			d := resid[base+x] - mean
			den += d * d
			if x+lag < nx {
				num += d * (resid[base+x+lag] - mean)
			}
		}
	}
	if den == 0 { //carol:allow floateq exact-zero denominator guard before dividing
		return 0
	}
	return num / den
}

// WithinBound reports whether the reconstruction satisfied the claimed
// bound everywhere.
func (r *QualityReport) WithinBound() bool { return r.Bound > 0 && r.Violations == 0 }

// StructuredResiduals reports whether any tracked residual autocorrelation
// magnitude exceeds the threshold (0.5 is a reasonable flag level: lossy
// residuals are typically quantization-noise-like).
func (r *QualityReport) StructuredResiduals(threshold float64) bool {
	for _, a := range r.ResidualAutocorr {
		if math.Abs(a) > threshold {
			return true
		}
	}
	return false
}

// WriteText renders a human-readable report.
func (r *QualityReport) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "samples\t%d\n", r.Samples)
	fmt.Fprintf(tw, "max abs error\t%g\n", r.MaxAbsErr)
	fmt.Fprintf(tw, "NRMSE\t%.3e\n", r.NRMSE)
	fmt.Fprintf(tw, "PSNR\t%.1f dB\n", r.PSNR)
	fmt.Fprintf(tw, "Pearson\t%.6f\n", r.Pearson)
	if r.Bound > 0 {
		fmt.Fprintf(tw, "bound\t%g (%d violations)\n", r.Bound, r.Violations)
	}
	fmt.Fprintf(tw, "worst slab\t#%d (RMS %.3g)\n", r.WorstSlab, r.WorstSlabRMS)
	fmt.Fprintf(tw, "residual autocorr (lag 1/2/4)\t%.2f / %.2f / %.2f\n",
		r.ResidualAutocorr[0], r.ResidualAutocorr[1], r.ResidualAutocorr[2])
	// Histogram as a simple bar chart.
	maxCount := 0
	for _, c := range r.Histogram {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range r.Histogram {
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", int(math.Ceil(float64(c)/float64(maxCount)*30)))
		}
		lo := r.MaxAbsErr * float64(i) / qualityBins
		fmt.Fprintf(tw, "|err| >= %.3g\t%8d %s\n", lo, c, bar)
	}
	return tw.Flush()
}
