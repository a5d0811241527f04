// Comparison: FXRZ vs CAROL head-to-head on the same workload — setup cost
// (data collection + training) and end-to-end fixed-ratio accuracy, the
// trade-off Figure 8 and Table 3 of the paper quantify.
//
//	go run ./examples/comparison
package main

import (
	"fmt"
	"log"
	"time"

	"carol"
	"carol/internal/codecs"
	"carol/internal/core"
	"carol/internal/dataset"
	"carol/internal/stats"
)

const compressorName = "sz3"

func main() {
	opts := dataset.Options{Nx: 48, Ny: 48, Nz: 48}
	var train []*carol.Field
	for _, name := range []string{"density", "pressure", "velocityy", "viscosity"} {
		f, err := dataset.Generate("miranda", name, opts)
		if err != nil {
			log.Fatal(err)
		}
		train = append(train, f)
	}
	test, err := dataset.Generate("miranda", "velocityx", opts)
	if err != nil {
		log.Fatal(err)
	}
	targets := []float64{10, 25, 50}

	// --- FXRZ baseline: full-compressor collection + grid search.
	codec, err := codecs.ByName(compressorName)
	if err != nil {
		log.Fatal(err)
	}
	fx := core.NewFXRZ(codec, core.Config{ForestCap: 50})
	start := time.Now()
	if _, err := fx.Collect(train); err != nil {
		log.Fatal(err)
	}
	if _, err := fx.Train(); err != nil {
		log.Fatal(err)
	}
	fxSetup := time.Since(start)
	var fxAlpha stats.Accumulator
	for _, t := range targets {
		_, achieved, err := fx.CompressToRatio(test, t)
		if err != nil {
			log.Fatal(err)
		}
		fxAlpha.Add(stats.PctError(achieved, t))
	}

	// --- CAROL: surrogate collection + calibration + Bayesian optimization.
	ca, err := carol.New(compressorName, carol.Config{ForestCap: 50})
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	if _, err := ca.Collect(train); err != nil {
		log.Fatal(err)
	}
	if _, err := ca.Train(); err != nil {
		log.Fatal(err)
	}
	caSetup := time.Since(start)
	var caAlpha stats.Accumulator
	for _, t := range targets {
		_, achieved, err := ca.CompressToRatio(test, t)
		if err != nil {
			log.Fatal(err)
		}
		caAlpha.Add(stats.PctError(achieved, t))
	}

	fmt.Printf("compressor: %s, %d training fields, %d targets on held-out field\n\n",
		compressorName, len(train), len(targets))
	fmt.Printf("%-8s %12s %14s\n", "", "setup time", "ratio error α")
	fmt.Printf("%-8s %12v %13.1f%%\n", "FXRZ", fxSetup.Round(time.Millisecond), fxAlpha.Mean())
	fmt.Printf("%-8s %12v %13.1f%%\n", "CAROL", caSetup.Round(time.Millisecond), caAlpha.Mean())
	fmt.Printf("\nCAROL setup speedup: %.1fx, accuracy difference: %.1f points\n",
		float64(fxSetup)/float64(caSetup), caAlpha.Mean()-fxAlpha.Mean())
}
