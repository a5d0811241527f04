// Command carolpack bundles multiple raw fields into a single compressed
// snapshot archive — the storage-budget workflow of the paper's use case 1.
//
// Pack (each -field is name:codec:relEB:dims:path):
//
//	carolpack -pack -out snap.car \
//	  -field density:sz3:1e-3:128x128x64:density.f32 \
//	  -field pressure:sperr:1e-3:128x128x64:pressure.f32
//
// List and extract:
//
//	carolpack -list -in snap.car
//	carolpack -extract density -in snap.car -out density.f32
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"carol"
	"carol/internal/archive"
	"carol/internal/compressor"
	"carol/internal/field"
)

// fieldSpecs collects repeated -field flags.
type fieldSpecs []string

func (f *fieldSpecs) String() string { return strings.Join(*f, ",") }
func (f *fieldSpecs) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == nil {
		err = run(o)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "carolpack:", err)
		os.Exit(1)
	}
}

// options carries the parsed flag set.
type options struct {
	fields       fieldSpecs
	pack, stream bool
	workers      int
	list         bool
	extract      string
	in, out      string
}

// parseFlags reads the flags and refuses a negative -workers before any
// work.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("carolpack", flag.ContinueOnError)
	fs.Var(&o.fields, "field", "field spec name:codec:relEB:NXxNYxNZ:path (repeatable)")
	fs.BoolVar(&o.pack, "pack", false, "create an archive from -field specs")
	fs.BoolVar(&o.stream, "stream", false,
		"pack entries via the block pipeline (CPL1 containers; block-parallel pack and extract)")
	fs.IntVar(&o.workers, "workers", 0, "pipeline worker count with -stream (0 = GOMAXPROCS)")
	fs.BoolVar(&o.list, "list", false, "list archive contents")
	fs.StringVar(&o.extract, "extract", "", "extract one field by name")
	fs.StringVar(&o.in, "in", "", "input archive")
	fs.StringVar(&o.out, "out", "", "output file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.workers < 0 {
		return o, fmt.Errorf("-workers %d < 0", o.workers)
	}
	return o, nil
}

func run(o options) error {
	switch {
	case o.pack:
		return doPack(o.fields, o.out, o.stream, o.workers)
	case o.list:
		return doList(o.in)
	case o.extract != "":
		return doExtract(o.in, o.extract, o.out)
	default:
		return fmt.Errorf("need one of -pack, -list, -extract")
	}
}

// parseFieldSpec splits name:codec:relEB:dims:path.
func parseFieldSpec(spec string) (name, codec string, relEB float64, nx, ny, nz int, path string, err error) {
	parts := strings.SplitN(spec, ":", 5)
	if len(parts) != 5 {
		return "", "", 0, 0, 0, 0, "", fmt.Errorf("bad -field spec %q (want name:codec:relEB:dims:path)", spec)
	}
	name, codec, path = parts[0], parts[1], parts[4]
	relEB, err = strconv.ParseFloat(parts[2], 64)
	if err != nil || relEB <= 0 {
		return "", "", 0, 0, 0, 0, "", fmt.Errorf("bad relEB in %q", spec)
	}
	nx, ny, nz, err = field.ParseDims(parts[3])
	if err != nil {
		return "", "", 0, 0, 0, 0, "", fmt.Errorf("%v in %q", err, spec)
	}
	return name, codec, relEB, nx, ny, nz, path, nil
}

func doPack(fields fieldSpecs, out string, stream bool, workers int) error {
	if len(fields) == 0 || out == "" {
		return fmt.Errorf("-pack needs -field specs and -out")
	}
	w := archive.NewWriter()
	for _, spec := range fields {
		name, codecName, relEB, nx, ny, nz, path, err := parseFieldSpec(spec)
		if err != nil {
			return err
		}
		inF, err := os.Open(path)
		if err != nil {
			return err
		}
		f, err := carol.ReadRawField(name, nx, ny, nz, inF)
		_ = inF.Close() // read-only; no buffered writes to lose
		if err != nil {
			return err
		}
		eb := compressor.AbsBound(f, relEB)
		if stream {
			err = w.AddPipeline(name, codecName, f, eb, workers)
		} else {
			err = w.Add(name, codecName, f, eb)
		}
		if err != nil {
			return err
		}
		fmt.Printf("packed %s (%s, rel eb %g)\n", name, codecName, relEB)
	}
	outF, err := os.Create(out)
	if err != nil {
		return err
	}
	if _, err := w.WriteTo(outF); err != nil {
		_ = outF.Close()
		return err
	}
	// Close, not defer: the archive only exists once the flush succeeds.
	return outF.Close()
}

func openArchive(in string) (*archive.Archive, error) {
	if in == "" {
		return nil, fmt.Errorf("need -in")
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return archive.Read(f)
}

func doList(in string) error {
	a, err := openArchive(in)
	if err != nil {
		return err
	}
	for _, name := range a.Names() {
		e, _ := a.Entry(name)
		fmt.Printf("%-24s %-6s %10d bytes\n", e.Name, e.Codec, len(e.Stream))
	}
	if ratio, err := a.Ratio(); err == nil {
		fmt.Printf("total %d bytes compressed, overall ratio %.1f\n", a.TotalCompressed(), ratio)
	}
	return nil
}

func doExtract(in, name, out string) error {
	if out == "" {
		return fmt.Errorf("need -out")
	}
	a, err := openArchive(in)
	if err != nil {
		return err
	}
	f, err := a.Field(name)
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
	if err := outF.Close(); err != nil {
		return err
	}
	fmt.Printf("extracted %s: %dx%dx%d (%d bytes)\n", name, f.Nx, f.Ny, f.Nz, f.SizeBytes())
	return nil
}
