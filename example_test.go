package carol_test

import (
	"fmt"

	"carol"
	"carol/internal/dataset"
	"carol/internal/trainset"
)

// ExampleCompress demonstrates plain error-bounded compression without any
// ratio model.
func ExampleCompress() {
	f, err := dataset.Generate("miranda", "density", dataset.Options{Nx: 32, Ny: 32, Nz: 16})
	if err != nil {
		panic(err)
	}
	stream, err := carol.Compress("sz3", f, 1e-3) // 0.1% of the value range
	if err != nil {
		panic(err)
	}
	recon, err := carol.Decompress("sz3", stream)
	if err != nil {
		panic(err)
	}
	bound := 1e-3 * f.ValueRange()
	fmt.Println("within bound:", carol.MaxAbsError(f, recon) <= bound)
	fmt.Println("compressed:", carol.Ratio(f, stream) > 1)
	// Output:
	// within bound: true
	// compressed: true
}

// ExampleNew shows the full fixed-ratio workflow: collect, train, compress
// to a requested ratio.
func ExampleNew() {
	fw, err := carol.New("szx", carol.Config{
		ErrorBounds:  trainset.GeometricBounds(1e-4, 1e-1, 8),
		BOIterations: 4,
		ForestCap:    5,
		Seed:         1,
	})
	if err != nil {
		panic(err)
	}
	var train []*carol.Field
	for _, name := range []string{"density", "pressure"} {
		f, err := dataset.Generate("miranda", name, dataset.Options{Nx: 24, Ny: 24, Nz: 12})
		if err != nil {
			panic(err)
		}
		train = append(train, f)
	}
	if _, err := fw.Collect(train); err != nil {
		panic(err)
	}
	if _, err := fw.Train(); err != nil {
		panic(err)
	}
	test, err := dataset.Generate("miranda", "viscosity", dataset.Options{Nx: 24, Ny: 24, Nz: 12})
	if err != nil {
		panic(err)
	}
	stream, achieved, err := fw.CompressToRatio(test, 4)
	if err != nil {
		panic(err)
	}
	fmt.Println("got a stream:", len(stream) > 0)
	fmt.Println("achieved something close to 4:1:", achieved > 2 && achieved < 8)
	// Output:
	// got a stream: true
	// achieved something close to 4:1: true
}

// ExampleIterativeCompressToRatio shows the FRaZ-style baseline that needs
// no training.
func ExampleIterativeCompressToRatio() {
	f, err := dataset.Generate("miranda", "viscosity", dataset.Options{Nx: 24, Ny: 24, Nz: 12})
	if err != nil {
		panic(err)
	}
	// SZ3 searches on real compressor runs alone; for SZx and ZFP the search
	// runs on their surrogate first and mostly compresses once.
	res, err := carol.IterativeCompressToRatio("sz3", f, 4)
	if err != nil {
		panic(err)
	}
	fmt.Println("multiple compressor runs:", res.CompressorRuns > 1)
	// Output:
	// multiple compressor runs: true
}
