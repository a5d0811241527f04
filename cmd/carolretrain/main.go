// Command carolretrain runs CAROL's continuous-retraining cycle: read
// the served-traffic journal carolserve harvested (-harvest-dir), train
// the full surrogate zoo on it, shadow-evaluate the winning candidate
// against the live registry model on the newest held-out traffic, and
// publish only when the candidate provably wins (DESIGN.md §17).
//
//	carolretrain -codec szx -model-dir ./models -harvest-dir ./harvest
//	carolretrain -codec sz3 -model-dir ./models -harvest-dir ./harvest \
//	    -interval 10m -min-samples 200 -margin 0.05 -gc 4
//
// One-shot by default; -interval turns it into a long-running controller.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"carol/internal/model"
	"carol/internal/retrain"
	"carol/internal/zoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "carolretrain:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (retrain.Config, time.Duration, error) {
	var (
		cfg      retrain.Config
		backends string
		interval time.Duration
		kfolds   int
		seed     uint64
		workers  int
	)
	fs := flag.NewFlagSet("carolretrain", flag.ContinueOnError)
	fs.StringVar(&cfg.Codec, "codec", "", "compressor whose journal is retrained (szx|zfp|sz3|sperr|szp)")
	fs.StringVar(&cfg.Name, "name", "", "model name in the registry (default: codec name)")
	fs.StringVar(&cfg.RegistryDir, "model-dir", "", "registry root directory")
	fs.StringVar(&cfg.HarvestDir, "harvest-dir", "", "journal directory carolserve harvests into")
	fs.IntVar(&cfg.JournalCap, "journal-cap", 0, "newest journal records considered (0 = default)")
	fs.IntVar(&cfg.MinSamples, "min-samples", 0, "harvested records required before retraining (0 = default 20)")
	fs.Float64Var(&cfg.Holdout, "holdout", 0, "newest fraction of traffic held out for shadow eval (0 = default 0.25)")
	fs.Float64Var(&cfg.WinMargin, "margin", 0, "median shadow-error improvement required to publish (0 = default 0.02)")
	fs.IntVar(&cfg.GCKeep, "gc", 0, "after publishing, keep only the newest N versions (0 = keep all)")
	fs.StringVar(&backends, "backends", "",
		"comma-separated backend subset (default: all of "+strings.Join(model.KnownBackends(), ",")+")")
	fs.IntVar(&kfolds, "kfolds", 0, "zoo cross-validation folds (0 = default 5)")
	fs.Uint64Var(&seed, "seed", 1, "master seed for the zoo's fold split and trainers")
	fs.IntVar(&workers, "workers", 0, "CPU parallelism for training (0 = all cores)")
	fs.DurationVar(&interval, "interval", 0, "retraining period; 0 runs exactly one cycle and exits")
	if err := fs.Parse(args); err != nil {
		return cfg, 0, err
	}
	if cfg.Codec == "" || cfg.RegistryDir == "" || cfg.HarvestDir == "" {
		return cfg, 0, fmt.Errorf("need -codec, -model-dir and -harvest-dir")
	}
	cfg.Zoo = zoo.Config{KFolds: kfolds, Seed: seed, Workers: workers}
	if backends != "" {
		var err error
		if cfg.Zoo.Backends, err = model.ParseBackends(backends); err != nil {
			return cfg, 0, fmt.Errorf("-backends: %w", err)
		}
	}
	return cfg, interval, nil
}

// printReport renders one cycle for operators: split, scoreboard, shadow
// stats, verdict.
func printReport(out io.Writer, rep *retrain.Report) {
	fmt.Fprintf(out, "carolretrain: %s: harvested=%d train=%d holdout=%d\n",
		rep.Codec, rep.Harvested, rep.TrainRows, rep.HoldoutRows)
	if rep.CandidateBackend != "" {
		fmt.Fprintf(out, "carolretrain: candidate backend %s", rep.CandidateBackend)
		if mse, ok := rep.Scoreboard["zoo_cv_mse_"+rep.CandidateBackend]; ok {
			fmt.Fprintf(out, " (cv mse %s)", mse)
		}
		fmt.Fprintln(out)
	}
	if rep.Candidate != nil && rep.Live != nil {
		fmt.Fprintf(out, "carolretrain: shadow eval on %d samples: candidate p50=%.4g p90=%.4g, live p50=%.4g p90=%.4g\n",
			rep.Candidate.N, rep.Candidate.P50, rep.Candidate.P90, rep.Live.P50, rep.Live.P90)
	}
	if rep.Published != nil {
		fmt.Fprintf(out, "carolretrain: %s: published %s v%d (%d bytes, sha256 %s…)\n",
			rep.Verdict, rep.Published.Name, rep.Published.Number, rep.Published.Size, rep.Published.SHA256[:12])
	} else {
		fmt.Fprintf(out, "carolretrain: %s: nothing published\n", rep.Verdict)
	}
}

func run(args []string, out io.Writer) error {
	cfg, interval, err := parseFlags(args)
	if err != nil {
		return err
	}
	if interval <= 0 {
		rep, err := retrain.RunOnce(cfg)
		if err != nil {
			return err
		}
		printReport(out, rep)
		return nil
	}
	ctrl, err := retrain.NewController(cfg, interval)
	if err != nil {
		return err
	}
	ctrl.Observe = func(rep *retrain.Report, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "carolretrain: cycle failed:", err)
			return
		}
		printReport(out, rep)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(out, "carolretrain: retraining %s every %v (ctrl-c to stop)\n", cfg.Codec, interval)
	ctrl.Run(ctx)
	return nil
}
