// Codec throughput: MB/s per codec through the block pipeline, swept over
// worker counts — the serving-scale cost axis the paper's resource-limited
// setting cares about, reported next to the ratio/quality numbers the rest
// of the experiments cover. The gated form of the same measurement is
// bench/'s codec_bulk workload (bench/README.md); this experiment is the
// human-readable sweep.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/pipeline"
)

// RunThroughput reports compress/decompress throughput (MB/s), ratio and
// PSNR per codec at each worker count from 1 to maxWorkers (0 = GOMAXPROCS).
// Streams are bit-identical across the sweep — only wall-clock changes —
// so ratio and PSNR are printed once per codec.
func RunThroughput(w io.Writer, s Scale, maxWorkers int) error {
	header(w, "thr", "Codec throughput through the block pipeline (MB/s)")
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	p := paramsFor(s)
	f, err := p.genTimingField("miranda", "density", 0)
	if err != nil {
		return err
	}
	const rel = 1e-3
	eb := compressor.AbsBound(f, rel)
	mb := float64(f.SizeBytes()) / 1e6
	fmt.Fprintf(w, "field %dx%dx%d (%.1f MB), rel eb %g, workers 1..%d\n",
		f.Nx, f.Ny, f.Nz, mb, rel, maxWorkers)
	tw := newTable(w)
	fmt.Fprintln(tw, "codec\tworkers\tcompress MB/s\tdecompress MB/s\tratio\tPSNR dB")
	for _, name := range codecs.Names {
		codec, err := codecs.ByName(name)
		if err != nil {
			return err
		}
		for workers := 1; workers <= maxWorkers; workers++ {
			pc := pipeline.New(codec, pipeline.Options{Workers: workers})
			start := time.Now()
			stream, err := pc.Compress(f, eb)
			compressSec := time.Since(start).Seconds()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			start = time.Now()
			g, err := pc.Decompress(stream)
			decompressSec := time.Since(start).Seconds()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\n",
				name, workers, mb/compressSec, mb/decompressSec,
				compressor.Ratio(f, stream), compressor.PSNR(f, g))
		}
	}
	return tw.Flush()
}
