// Command carolgen writes synthetic scientific dataset fields as raw
// little-endian float32 binaries — the stand-ins for SDRBench/Klacansky
// dumps used throughout this repository.
//
//	carolgen -dataset miranda -field viscosity -dims 128x128x128 -out visc.f32
//	carolgen -list
//
// -dims is NXxNYxNZ; a missing trailing axis is 1, so 32x32 is a 32×32×1
// field, as everywhere else in the repository (field.ParseDims).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"carol/internal/dataset"
	"carol/internal/field"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "carolgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("carolgen", flag.ExitOnError)
	ds := fs.String("dataset", "", "dataset name (see -list)")
	fieldName := fs.String("field", "", "field name (see -list)")
	dims := fs.String("dims", "", "override grid dims NXxNYxNZ (a missing trailing axis is 1)")
	step := fs.Int("step", 0, "time step (time-evolving datasets)")
	out := fs.String("out", "", "output file")
	list := fs.Bool("list", false, "list datasets and fields")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0

	if *list {
		for _, spec := range dataset.Summary() {
			fmt.Fprintf(stdout, "%-10s %-24s steps=%-3d default=%dx%dx%d fields=%s\n",
				spec.Name, spec.Domain, spec.TimeSteps, spec.Nx, spec.Ny, spec.Nz,
				strings.Join(spec.Fields, ","))
		}
		return nil
	}
	if *ds == "" || *fieldName == "" || *out == "" {
		return fmt.Errorf("need -dataset, -field and -out (or -list)")
	}
	opts := dataset.Options{TimeStep: *step}
	if *dims != "" {
		var err error
		if opts.Nx, opts.Ny, opts.Nz, err = field.ParseDims(*dims); err != nil {
			return fmt.Errorf("-dims: %w", err)
		}
	}
	f, err := dataset.Generate(*ds, *fieldName, opts)
	if err != nil {
		return err
	}
	outF, err := os.Create(*out)
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
	fmt.Fprintf(stdout, "wrote %s: %s %dx%dx%d (%d bytes)\n", *out, f.Name, f.Nx, f.Ny, f.Nz, f.SizeBytes())
	return nil
}
