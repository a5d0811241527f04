// Command carolc is a command-line lossy compressor for raw float32
// scientific data, exposing both classic error-bounded compression and
// CAROL's fixed-ratio mode.
//
// Compress with an explicit relative error bound:
//
//	carolc -compressor sz3 -dims 256x256x256 -eb 1e-3 -in data.f32 -out data.sz3c
//
// Compress to a target ratio (the FRaZ search on the error bound that
// carolserve's ratio= runs: SZx, ZFP and SZ3 root-find on their SECRE
// search surrogate and then compress once to three times; the achieved
// ratio, the compressor runs and whether it landed within 3 % are printed):
//
//	carolc -compressor sz3 -dims 256x256x256 -ratio 40 -in data.f32 -out data.sz3c
//
// Compress via the streaming block pipeline (peak memory stops scaling
// with field size; output is the CPL1 pipeline container):
//
//	carolc -stream -compressor sz3 -dims 256x256x256 -eb 1e-3 -in data.f32 -out data.cpl
//
// Let the selector pick the codec (prints the choice and the predicted
// ratio; decompression sniffs the codec from the stream magic):
//
//	carolc -codec auto -dims 256x256x256 -eb 1e-3 -in data.f32 -out data.carolc
//	carolc -d -codec auto -in data.carolc -out restored.f32
//
// Decompress (CPL1 containers are auto-detected):
//
//	carolc -d -compressor sz3 -in data.sz3c -out restored.f32
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"carol"
	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/pipeline"
	"carol/internal/selector"
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == nil {
		err = run(o)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "carolc:", err)
		os.Exit(1)
	}
}

// options carries the parsed flag set.
type options struct {
	codec      string // -codec, else -compressor
	dims       string
	eb, ratio  float64
	in, out    string
	decompress bool
	stream     bool
	workers    int
	verify     string
}

// parseFlags reads the flags and refuses a value out of range, or -eb and
// -ratio together, before any work.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("carolc", flag.ContinueOnError)
	comp := fs.String("compressor", "sz3", "compressor: "+strings.Join(codecs.ExtendedNames, ", "))
	codec := fs.String("codec", "",
		"alias for -compressor; \"auto\" selects adaptively (-eb compress, sniffed -d)")
	fs.StringVar(&o.dims, "dims", "", "grid dims NXxNYxNZ (compression only)")
	fs.Float64Var(&o.eb, "eb", 0, "value-range-relative error bound")
	fs.Float64Var(&o.ratio, "ratio", 0, "target compression ratio (fixed-ratio mode)")
	fs.StringVar(&o.in, "in", "", "input file (raw little-endian float32, or compressed stream with -d/-verify)")
	fs.StringVar(&o.out, "out", "", "output file")
	fs.BoolVar(&o.decompress, "d", false, "decompress instead of compress")
	fs.BoolVar(&o.stream, "stream", false,
		"compress via the block pipeline: CPL1 container, bounded peak memory (-eb mode only)")
	fs.IntVar(&o.workers, "workers", 0, "pipeline worker count for -stream/-d (0 = GOMAXPROCS)")
	fs.StringVar(&o.verify, "verify", "", "original raw file: decompress -in and print a quality report against it")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.codec = *comp
	if *codec != "" {
		o.codec = *codec
	}
	switch {
	case o.workers < 0:
		return o, fmt.Errorf("-workers %d < 0", o.workers)
	case !(o.eb >= 0): // NaN too
		return o, fmt.Errorf("-eb %g out of range: want a relative error bound > 0", o.eb)
	case !(o.ratio >= 0) || o.ratio > 0 && o.ratio <= 1 || math.IsInf(o.ratio, 1):
		// No codec shrinks a field to a ratio of 1 or less, or to nothing.
		return o, fmt.Errorf("-ratio %g out of range: want a finite target ratio > 1", o.ratio)
	case o.eb > 0 && o.ratio > 0:
		return o, fmt.Errorf("-eb %g and -ratio %g: pass one of them", o.eb, o.ratio)
	}
	return o, nil
}

func run(o options) error {
	if o.verify != "" {
		return doVerify(o.codec, o.in, o.verify, o.dims)
	}
	if o.in == "" || o.out == "" {
		return fmt.Errorf("need -in and -out")
	}
	if o.decompress {
		return doDecompress(o.codec, o.in, o.out, o.workers)
	}
	nx, ny, nz, err := field.ParseDims(o.dims)
	if err != nil {
		return err
	}
	inF, err := os.Open(o.in)
	if err != nil {
		return err
	}
	defer inF.Close()
	f, err := carol.ReadRawField(o.in, nx, ny, nz, inF)
	if err != nil {
		return err
	}

	if o.codec == "auto" {
		switch {
		case o.ratio > 0:
			return fmt.Errorf("-codec auto needs -eb; pass a codec with -ratio")
		case o.stream:
			return fmt.Errorf("-codec auto cannot write CPL1 containers (they do not name their codec); pass a codec with -stream")
		case !(o.eb > 0):
			return fmt.Errorf("-codec auto needs -eb")
		}
		return doCompressAuto(f, o.eb, o.out)
	}
	if o.stream {
		if !(o.eb > 0) {
			return fmt.Errorf("-stream needs -eb")
		}
		return doCompressStream(o.codec, f, o.eb, o.out, o.workers)
	}
	var blob []byte
	switch {
	case o.ratio > 0:
		blob, err = compressToRatio(o.codec, f, o.ratio)
	case o.eb > 0:
		blob, err = carol.Compress(o.codec, f, o.eb)
	default:
		return fmt.Errorf("need -eb or -ratio")
	}
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: %d -> %d bytes (ratio %.2f)\n",
		o.codec, f.SizeBytes(), len(blob), carol.Ratio(f, blob))
	return nil
}

// doCompressAuto lets the selector score every registered codec's ranking
// surrogate on this field and bound, and compresses with the best predicted
// ratio — the same pick carolserve makes for mode=auto.
func doCompressAuto(f *carol.Field, relEB float64, out string) error {
	sel, err := selector.New(selector.Config{})
	if err != nil {
		return err
	}
	abs := compressor.AbsBound(f, relEB)
	dec, err := sel.Select(f, abs, 0)
	if err != nil {
		return err
	}
	if p := dec.PredictedRatio(); p > 0 {
		fmt.Printf("auto: chose %s (predicted ratio %.2f)\n", dec.Codec, p)
	} else {
		fmt.Printf("auto: chose %s (fallback, no usable estimate)\n", dec.Codec)
	}
	blob, err := carol.Compress(dec.Codec, f, relEB)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: %d -> %d bytes (ratio %.2f)\n",
		dec.Codec, f.SizeBytes(), len(blob), carol.Ratio(f, blob))
	return nil
}

// doCompressStream writes the CPL1 pipeline container straight to the
// output file: compressed blocks leave memory as soon as they are emitted.
func doCompressStream(comp string, f *carol.Field, eb float64, out string, workers int) error {
	outF, err := os.Create(out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(outF)
	if err := carol.CompressStream(comp, bw, f, eb, carol.StreamOptions{Workers: workers}); err != nil {
		_ = outF.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		_ = outF.Close()
		return err
	}
	// Close before reporting success: Close surfaces the final flush failure.
	if err := outF.Close(); err != nil {
		return err
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s (stream): %d -> %d bytes (ratio %.2f)\n",
		comp, f.SizeBytes(), st.Size(), float64(f.SizeBytes())/float64(st.Size()))
	return nil
}

// compressToRatio resolves the error bound for the requested ratio with
// the FRaZ search carolserve's ratio= runs (carol.IterativeCompressToRatio):
// it root-finds on the codec's SECRE search surrogate where the codec has
// one, and compresses only where the search predicts the target.
func compressToRatio(comp string, f *carol.Field, target float64) ([]byte, error) {
	res, err := carol.IterativeCompressToRatio(comp, f, target)
	if err != nil {
		return nil, err
	}
	band := "inside"
	if !res.Converged {
		band = "outside"
	}
	fmt.Printf("requested ratio %.1f, achieved %.2f at rel eb %.3g (%d compressor runs, %s the 3%% band)\n",
		target, res.Achieved, res.RelErrorBound, res.CompressorRuns, band)
	return res.Stream, nil
}

func doDecompress(comp, in, out string, workers int) error {
	inF, err := os.Open(in)
	if err != nil {
		return err
	}
	defer inF.Close()
	f, err := decodeAny(comp, inF, workers)
	if err != nil {
		return err
	}
	outF, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := f.WriteRaw(outF); err != nil {
		_ = outF.Close()
		return err
	}
	// Close before reporting success: on a written file, Close is what
	// surfaces the final flush failure.
	if err := outF.Close(); err != nil {
		return err
	}
	fmt.Printf("restored %dx%dx%d field (%d bytes)\n", f.Nx, f.Ny, f.Nz, f.SizeBytes())
	return nil
}

// decodeAny decodes either a slab container (CPL1, or the legacy CCH1;
// detected by magic, decoded block-streaming without buffering the input
// in full) or a plain codec stream. With comp == "auto" the codec is
// sniffed from the stream's leading magic byte — except for slab
// containers, which carry no codec name and need one passed explicitly.
func decodeAny(comp string, r io.Reader, workers int) (*carol.Field, error) {
	br := bufio.NewReader(r)
	if peek, err := br.Peek(len(pipeline.Magic)); err == nil && pipeline.IsContainer(peek) {
		if comp == "auto" {
			return nil, fmt.Errorf("%s containers do not name their codec; pass one with -codec or -compressor", peek)
		}
		return carol.DecompressStream(comp, br, carol.StreamOptions{Workers: workers})
	}
	if comp == "auto" {
		peek, err := br.Peek(1)
		if err != nil {
			return nil, fmt.Errorf("sniff codec: %w", err)
		}
		if comp, err = codecs.Sniff(peek[0]); err != nil {
			return nil, fmt.Errorf("%w; pass the codec explicitly", err)
		}
	}
	stream, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	return carol.Decompress(comp, stream)
}

// doVerify decompresses `in` and reports reconstruction quality against the
// original raw file.
func doVerify(comp, in, origPath, dims string) error {
	if in == "" {
		return fmt.Errorf("need -in (compressed stream)")
	}
	nx, ny, nz, err := field.ParseDims(dims)
	if err != nil {
		return err
	}
	inF, err := os.Open(in)
	if err != nil {
		return err
	}
	defer inF.Close()
	recon, err := decodeAny(comp, inF, 0)
	if err != nil {
		return err
	}
	origF, err := os.Open(origPath)
	if err != nil {
		return err
	}
	defer origF.Close()
	orig, err := carol.ReadRawField(origPath, nx, ny, nz, origF)
	if err != nil {
		return err
	}
	report, err := carol.AnalyzeQuality(orig, recon, 0)
	if err != nil {
		return err
	}
	return report.WriteText(os.Stdout)
}
