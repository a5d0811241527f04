// Command carolc is a command-line lossy compressor for raw float32
// scientific data, exposing both classic error-bounded compression and
// CAROL's fixed-ratio mode.
//
// Compress with an explicit relative error bound:
//
//	carolc -compressor sz3 -dims 256x256x256 -eb 1e-3 -in data.f32 -out data.sz3c
//
// Compress to a target ratio (trains a small CAROL model on the input's own
// statistics first — self-training mode):
//
//	carolc -compressor sperr -dims 256x256x256 -ratio 100 -in data.f32 -out data.szc
//
// Compress via the streaming block pipeline (peak memory stops scaling
// with field size; output is the CPL1 pipeline container):
//
//	carolc -stream -compressor sz3 -dims 256x256x256 -eb 1e-3 -in data.f32 -out data.cpl
//
// Let the adaptive selector pick the codec (prints the choice and the
// predicted ratio; decompression sniffs the codec from the stream magic):
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
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"carol"
	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/pipeline"
	"carol/internal/selector"
	"carol/internal/trainset"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "carolc:", err)
		os.Exit(1)
	}
}

func run() error {
	comp := flag.String("compressor", "sz3", "compressor: "+strings.Join(codecs.ExtendedNames, ", "))
	codec := flag.String("codec", "",
		"alias for -compressor; \"auto\" selects adaptively (-eb compress, sniffed -d)")
	selectorSeed := flag.Uint64("selector-seed", 1, "RNG seed for -codec auto exploration")
	dims := flag.String("dims", "", "grid dims NXxNYxNZ (compression only)")
	eb := flag.Float64("eb", 0, "value-range-relative error bound")
	ratio := flag.Float64("ratio", 0, "target compression ratio (fixed-ratio mode)")
	in := flag.String("in", "", "input file (raw little-endian float32, or compressed stream with -d/-verify)")
	out := flag.String("out", "", "output file")
	decompress := flag.Bool("d", false, "decompress instead of compress")
	stream := flag.Bool("stream", false,
		"compress via the block pipeline: CPL1 container, bounded peak memory (-eb mode only)")
	workers := flag.Int("workers", 0, "pipeline worker count for -stream/-d (0 = GOMAXPROCS)")
	verify := flag.String("verify", "", "original raw file: decompress -in and print a quality report against it")
	flag.Parse()

	name := *comp
	if *codec != "" {
		name = *codec
	}
	if *verify != "" {
		return doVerify(name, *in, *verify, *dims)
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("need -in and -out")
	}
	if *decompress {
		return doDecompress(name, *in, *out, *workers)
	}
	nx, ny, nz, err := field.ParseDims(*dims)
	if err != nil {
		return err
	}
	inF, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer inF.Close()
	f, err := carol.ReadRawField(*in, nx, ny, nz, inF)
	if err != nil {
		return err
	}

	if name == "auto" {
		switch {
		case *ratio > 0:
			return fmt.Errorf("-codec auto needs -eb; fixed-ratio mode trains per codec, pass one explicitly")
		case *stream:
			return fmt.Errorf("-codec auto cannot write CPL1 containers (they do not name their codec); pass a codec with -stream")
		case !(*eb > 0):
			return fmt.Errorf("-codec auto needs -eb")
		}
		return doCompressAuto(f, *eb, *out, *selectorSeed)
	}
	if *stream {
		if !(*eb > 0) {
			return fmt.Errorf("-stream needs -eb")
		}
		return doCompressStream(name, f, *eb, *out, *workers)
	}
	var blob []byte
	switch {
	case *ratio > 0:
		blob, err = compressToRatio(name, f, *ratio)
	case *eb > 0:
		blob, err = carol.Compress(name, f, *eb)
	default:
		return fmt.Errorf("need -eb or -ratio")
	}
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: %d -> %d bytes (ratio %.2f)\n",
		name, f.SizeBytes(), len(blob), carol.Ratio(f, blob))
	return nil
}

// doCompressAuto lets the bandit selector score every registered codec on
// the field's own features and compress with the cheapest one predicted to
// behave; the achieved ratio is fed back so a long-running shell loop over
// many files sharpens the estimates within the process.
func doCompressAuto(f *carol.Field, relEB float64, out string, seed uint64) error {
	sel, err := selector.New(selector.Config{Seed: seed})
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
	achieved := carol.Ratio(f, blob)
	sel.Observe(dec, achieved)
	fmt.Printf("%s: %d -> %d bytes (ratio %.2f)\n",
		dec.Codec, f.SizeBytes(), len(blob), achieved)
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

// compressToRatio self-trains a small CAROL model on the input field and
// compresses to the requested ratio.
func compressToRatio(comp string, f *carol.Field, target float64) ([]byte, error) {
	fw, err := carol.New(comp, carol.Config{
		ErrorBounds:  trainset.GeometricBounds(1e-4, 1e-1, 12),
		BOIterations: 6,
		ForestCap:    30,
	})
	if err != nil {
		return nil, err
	}
	if _, err := fw.Collect([]*carol.Field{f}); err != nil {
		return nil, err
	}
	if _, err := fw.Train(); err != nil {
		return nil, err
	}
	stream, achieved, err := fw.CompressToRatio(f, target)
	if err != nil {
		return nil, err
	}
	fmt.Printf("requested ratio %.1f, achieved %.2f\n", target, achieved)
	return stream, nil
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

// decodeAny decodes either a CPL1 pipeline container (detected by magic,
// decoded block-streaming without buffering the input in full) or a plain
// codec stream. With comp == "auto" the codec is sniffed from the stream's
// leading magic byte — except for CPL1 containers, which carry no codec
// name and need one passed explicitly.
func decodeAny(comp string, r io.Reader, workers int) (*carol.Field, error) {
	br := bufio.NewReader(r)
	if peek, err := br.Peek(len(pipeline.Magic)); err == nil && [4]byte(peek) == pipeline.Magic {
		if comp == "auto" {
			return nil, fmt.Errorf("CPL1 containers do not name their codec; pass one with -codec or -compressor")
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
