// Command caroltrain is the offline half of CAROL's model lifecycle: it
// runs the full training pipeline — surrogate data collection (calibrated
// for the high-ratio codecs), Bayesian-optimized random-forest fitting —
// and publishes the result as a versioned artifact in an on-disk model
// registry, where a warm-loading carolserve picks it up (DESIGN.md §12).
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
	"carol/internal/rf"
	"carol/internal/trainset"
	"carol/internal/zoo"
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
		"comma-separated surrogate backends to train and compare ("+strings.Join(model.KnownBackends(), ",")+"); "+
			"\"rf\" alone keeps the classic BO-tuned forest path")
	fs.IntVar(&o.bounds, "bounds", 35, "error bounds sampled per field during collection")
	fs.IntVar(&o.boIters, "bo-iters", 10, "Bayesian-optimization iterations")
	fs.IntVar(&o.forestCap, "forest-cap", 0, "cap NEstimators in the final forest (0 = none)")
	fs.IntVar(&o.kfolds, "kfolds", 3, "cross-validation folds per BO evaluation")
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
	if o.bounds < 2 {
		return o, fmt.Errorf("-bounds %d < 2", o.bounds)
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

// trainZoo runs the multi-backend sweep on the framework's collected
// training set and returns the winner's artifact with the CV scoreboard
// recorded in its metadata.
func trainZoo(out io.Writer, fw *core.Framework, o options, rfCfg rf.Config,
	meta map[string]string) (*model.Artifact, error) {
	if o.forestCap > 0 && rfCfg.NEstimators > o.forestCap {
		rfCfg.NEstimators = o.forestCap
	}
	zcfg := zoo.Config{
		Backends: o.backends,
		RF:       rfCfg,
		KFolds:   o.kfolds,
		Seed:     o.seed,
		Workers:  o.workers,
	}
	zcfg.Boost.Seed = o.seed
	X, y := fw.TrainingSet().Matrix()
	res, err := zoo.Train(X, y, zcfg)
	if err != nil {
		return nil, err
	}
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.Err != nil {
			fmt.Fprintf(out, "caroltrain: zoo: %s failed: %v\n", c.Backend, c.Err)
			continue
		}
		fmt.Fprintf(out, "caroltrain: zoo: %s cv mse %.6g\n", c.Backend, c.CVMSE)
	}
	winner := res.Best()
	if winner == nil {
		return nil, fmt.Errorf("zoo: every backend failed")
	}
	fmt.Fprintf(out, "caroltrain: zoo: winner %s\n", winner.Backend)
	for k, v := range res.Scoreboard() {
		meta[k] = v
	}
	return winner.Artifact(o.codec, meta)
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
	cfg := core.Config{
		ErrorBounds:  trainset.GeometricBounds(1e-4, 1e-1, o.bounds),
		BOIterations: o.boIters,
		ForestCap:    o.forestCap,
		KFolds:       o.kfolds,
		Workers:      o.workers,
		Seed:         o.seed,
	}
	fw, err := core.New(o.codec, cfg)
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
	forest, err := fw.Forest()
	if err != nil {
		return err
	}
	best := forest.Config()
	fmt.Fprintf(out, "caroltrain: BO evaluated %d configs in %v, best CV MSE %.6g (trees=%d depth=%d features=%s)\n",
		ts.Evaluated, ts.Duration.Round(time.Millisecond), ts.BestScore,
		best.NEstimators, best.MaxDepth, best.MaxFeatures)
	stats := forest.Stats()
	fmt.Fprintf(out, "caroltrain: forest: %d trees, %d nodes, max depth %d\n",
		stats.Trees, stats.Nodes, stats.MaxDepth)

	meta := map[string]string{
		"trained_at":    time.Now().UTC().Format(time.RFC3339),
		"datasets":      o.datasets,
		"fields":        strconv.Itoa(cs.Fields),
		"samples":       strconv.Itoa(cs.Samples),
		"bo_iterations": strconv.Itoa(ts.Evaluated),
		"best_cv_mse":   strconv.FormatFloat(ts.BestScore, 'g', -1, 64),
		"seed":          strconv.FormatUint(o.seed, 10),
	}
	var art *model.Artifact
	if len(o.backends) == 1 && o.backends[0] == model.BackendRF {
		// Classic path: with the forest as the only entrant there is nothing
		// to cross-validate, so publish the BO-tuned forest exactly as
		// trained — bit-identical to an in-process framework with the same
		// flags.
		art = &model.Artifact{
			Codec:     o.codec,
			Schema:    model.CanonicalSchema(),
			Regressor: forest,
			Meta:      meta,
		}
	} else {
		// Zoo path: cross-validate every requested backend on the same
		// fold split (the rf entrant reuses the BO-tuned config) and
		// publish whichever wins on this dataset.
		art, err = trainZoo(out, fw, o, ts.BestConfig, meta)
		if err != nil {
			return err
		}
	}
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
