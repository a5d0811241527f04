// Command caroltrain is the offline half of CAROL's model lifecycle: it
// runs core.Framework's training pipeline — surrogate data collection
// (calibrated for the high-ratio codecs), then the Bayesian-optimized
// random forest, or whichever -backends entry cross-validates best — and
// publishes the result as a versioned artifact in an on-disk model
// registry, where a warm-loading carolserve picks it up (DESIGN.md §12,
// §17).
//
//	caroltrain -codec sz3 -model-dir ./models -datasets miranda,cesm
//	caroltrain -codec szx -model-dir ./models -datasets miranda:viscosity \
//	    -dims 32x32x16 -bounds 12 -bo-iters 5 -forest-cap 40 -gc 4
//
// Training is deterministic for a fixed flag set (same fields, same seed
// → bit-identical forest); only the trained_at metadata entry varies
// between otherwise identical runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"carol/internal/codecs"
	"carol/internal/core"
	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/model"
	"carol/internal/pipeline"
	"carol/internal/registry"
	"carol/internal/trainset"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "caroltrain:", err)
		os.Exit(1)
	}
}

// options carries the parsed flag set.
type options struct {
	codec     string
	modelDir  string
	name      string
	datasets  string
	dims      string
	backends  []string
	bounds    int
	boIters   int
	forestCap int
	kfolds    int
	workers   int
	seed      uint64
	gcKeep    int
}

func parseFlags(args []string) (options, error) {
	var o options
	var backends string
	fs := flag.NewFlagSet("caroltrain", flag.ContinueOnError)
	fs.StringVar(&o.codec, "codec", "", "compressor to train for ("+strings.Join(codecs.ExtendedNames, "|")+")")
	fs.StringVar(&o.modelDir, "model-dir", "", "registry root directory to publish into")
	fs.StringVar(&o.name, "name", "", "model name in the registry (default: codec name)")
	fs.StringVar(&o.datasets, "datasets", "miranda",
		"comma-separated training data: dataset or dataset:field (see carolgen -list)")
	fs.StringVar(&o.dims, "dims", "", "override generated field dims NXxNYxNZ (tests and smoke runs)")
	fs.StringVar(&backends, "backends", model.BackendRF,
		"comma-separated surrogate backends ("+strings.Join(model.KnownBackends(), ",")+"); "+
			"with two or more, each is cross-validated on one shared split and the best is published; "+
			"the forest's BO search runs only when rf is listed")
	fs.IntVar(&o.bounds, "bounds", core.DefaultBounds, "error bounds sampled per field during collection")
	fs.IntVar(&o.boIters, "bo-iters", core.DefaultBOIterations, "Bayesian-optimization iterations")
	fs.IntVar(&o.forestCap, "forest-cap", 0, "cap NEstimators in the final forest (0 = none)")
	fs.IntVar(&o.kfolds, "kfolds", core.DefaultKFolds, "cross-validation folds per BO evaluation and backend comparison")
	fs.IntVar(&o.workers, "workers", 0, "CPU parallelism for field generation, collection and training (0 = all cores)")
	fs.Uint64Var(&o.seed, "seed", 1, "master seed for every randomized component")
	fs.IntVar(&o.gcKeep, "gc", 0, "after publishing, keep only the newest N versions (0 = keep all)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.codec == "" || o.modelDir == "" {
		return o, fmt.Errorf("need -codec and -model-dir")
	}
	if o.name == "" {
		o.name = o.codec
	}
	// Below its minimum, each of these would silently become its default
	// (or, for -kfolds 1, fail only after generating and collecting).
	for _, c := range []struct {
		flag     string
		val, min int
	}{
		{"bounds", o.bounds, 2},
		{"bo-iters", o.boIters, 1},
		{"kfolds", o.kfolds, 2},
		{"forest-cap", o.forestCap, 0},
		{"workers", o.workers, 0},
		{"gc", o.gcKeep, 0},
	} {
		if c.val < c.min {
			return o, fmt.Errorf("-%s %d < %d", c.flag, c.val, c.min)
		}
	}
	var err error
	if o.backends, err = model.ParseBackends(backends); err != nil {
		return o, fmt.Errorf("-backends: %w", err)
	}
	return o, nil
}

// generateFields expands the -datasets spec into training fields. The
// entries are checked in order, so an error names the first bad one; the
// fields are then generated on up to workers goroutines and returned in
// spec order.
func generateFields(spec, dims string, workers int) ([]*field.Field, error) {
	var opts dataset.Options
	if dims != "" {
		nx, ny, nz, err := field.ParseDims(dims)
		if err != nil {
			return nil, err
		}
		opts.Nx, opts.Ny, opts.Nz = nx, ny, nz
	}
	type dsField struct{ ds, name string }
	var todo []dsField
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		ds, name, one := strings.Cut(entry, ":")
		s, err := dataset.Lookup(ds)
		if err != nil {
			return nil, fmt.Errorf("-datasets entry %q: %w", entry, err)
		}
		if !one {
			for _, fn := range s.Fields {
				todo = append(todo, dsField{ds, fn})
			}
			continue
		}
		if !slices.Contains(s.Fields, name) {
			return nil, fmt.Errorf("-datasets entry %q: %s has no field %q (have %v)", entry, ds, name, s.Fields)
		}
		todo = append(todo, dsField{ds, name})
	}
	if len(todo) == 0 {
		return nil, fmt.Errorf("no training fields from -datasets %q", spec)
	}
	return pipeline.FanOut(len(todo), workers, func(i int) (*field.Field, error) {
		return dataset.Generate(todo[i].ds, todo[i].name, opts)
	})
}

func run(args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if err := registry.CheckName(o.name); err != nil {
		return err
	}
	start := time.Now()
	fields, err := generateFields(o.datasets, o.dims, o.workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "caroltrain: generated %d fields in %v\n", len(fields), time.Since(start).Round(time.Millisecond))
	fw, err := core.New(o.codec, core.Config{
		ErrorBounds:  trainset.GeometricBounds(core.MinErrorBound, core.MaxErrorBound, o.bounds),
		BOIterations: o.boIters,
		ForestCap:    o.forestCap,
		KFolds:       o.kfolds,
		Model:        strings.Join(o.backends, ","),
		Workers:      o.workers,
		Seed:         o.seed,
	})
	if err != nil {
		return err
	}
	cs, err := fw.Collect(fields)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "caroltrain: collected %d samples from %d fields in %v (surrogate=%d full=%d)\n",
		cs.Samples, cs.Fields, cs.Duration.Round(time.Millisecond), cs.SurrogateRuns, cs.FullCompressorRuns)
	ts, err := fw.Train()
	if err != nil {
		return err
	}
	meta := map[string]string{
		"trained_at": time.Now().UTC().Format(time.RFC3339),
		"datasets":   o.datasets,
		"fields":     strconv.Itoa(cs.Fields),
		"samples":    strconv.Itoa(cs.Samples),
		"seed":       strconv.FormatUint(o.seed, 10),
	}
	if slices.Contains(o.backends, model.BackendRF) {
		// The search maximises its score, the negative mean CV MSE.
		mse := -ts.BestScore
		fmt.Fprintf(out, "caroltrain: BO evaluated %d configs in %v, best CV MSE %.6g (trees=%d depth=%d features=%s)\n",
			ts.Evaluated, ts.Duration.Round(time.Millisecond), mse,
			ts.BestConfig.NEstimators, ts.BestConfig.MaxDepth, ts.BestConfig.MaxFeatures)
		meta["bo_iterations"] = strconv.Itoa(ts.Evaluated)
		meta["best_cv_mse"] = strconv.FormatFloat(mse, 'g', -1, 64)
	}
	// The zoo's scoreboard: each backend's CV score, or the error that
	// knocked it out, and the winner.
	for _, c := range ts.Zoo {
		if c.Err != nil {
			fmt.Fprintf(out, "caroltrain: zoo: %s failed: %v\n", c.Backend, c.Err)
			meta["zoo_err_"+c.Backend] = c.Err.Error()
			continue
		}
		fmt.Fprintf(out, "caroltrain: zoo: %s cv mse %.6g\n", c.Backend, c.CVMSE)
		meta["zoo_cv_mse_"+c.Backend] = strconv.FormatFloat(c.CVMSE, 'g', -1, 64)
	}
	if len(ts.Zoo) > 0 {
		fmt.Fprintf(out, "caroltrain: zoo: winner %s\n", ts.Backend)
		meta["zoo_best_backend"] = ts.Backend
	}
	art, err := fw.Artifact(meta)
	if err != nil {
		return err
	}
	st := art.Stats()
	fmt.Fprintf(out, "caroltrain: %s forest: %d trees, %d nodes, max depth %d\n",
		st.Backend, st.Trees, st.Nodes, st.MaxDepth)
	buf, err := art.Encode()
	if err != nil {
		return err
	}
	reg, err := registry.Open(o.modelDir)
	if err != nil {
		return err
	}
	v, err := reg.Publish(o.name, buf)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "caroltrain: published %s v%d (%d bytes, sha256 %s…) to %s\n",
		v.Name, v.Number, v.Size, v.SHA256[:12], o.modelDir)
	if o.gcKeep > 0 {
		removed, err := reg.GC(o.name, o.gcKeep)
		if err != nil {
			return err
		}
		if len(removed) > 0 {
			fmt.Fprintf(out, "caroltrain: gc removed versions %v (keep %d)\n", removed, o.gcKeep)
		}
	}
	return nil
}
