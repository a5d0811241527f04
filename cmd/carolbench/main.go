// Command carolbench regenerates the tables and figures of the CAROL paper
// (ICPP 2024) evaluation on synthetic stand-in datasets.
//
// Usage:
//
//	carolbench                      # run everything at quick scale
//	carolbench -experiment table5   # one artifact
//	carolbench -scale paper         # larger fields, 35-point sweeps
//	carolbench -list                # list available experiments
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"carol/internal/experiments"
)

// errWriter wraps an io.Writer and remembers the first write error, so
// the exit path can detect a truncated report (e.g. stdout piped into a
// consumer that died) and fail loudly instead of exiting 0 with partial
// tables.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// options carries the parsed flag set.
type options struct {
	exp     string
	scale   experiments.Scale
	workers int
	list    bool
}

// parseFlags reads the flags and refuses a value out of range, or a
// -workers the chosen experiment would ignore, before any work.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("carolbench", flag.ContinueOnError)
	fs.StringVar(&o.exp, "experiment", "", "experiment id (default: all); see -list")
	scale := fs.String("scale", "quick", "experiment scale: quick or paper")
	fs.IntVar(&o.workers, "workers", 0,
		"throughput experiment: sweep pipeline workers 1..N (0 = GOMAXPROCS); implies -experiment thr unless set")
	fs.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	workersSet := false
	fs.Visit(func(f *flag.Flag) { workersSet = workersSet || f.Name == "workers" })
	switch {
	case o.workers < 0:
		return o, fmt.Errorf("-workers %d < 0", o.workers)
	case workersSet && o.exp != "" && o.exp != "thr":
		return o, fmt.Errorf("-workers sets the thr sweep's width; -experiment %s does not use it", o.exp)
	}
	var err error
	o.scale, err = experiments.ParseScale(*scale)
	return o, err
}

func run(args []string) int {
	o, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "carolbench:", err)
		return 2
	}
	ew := &errWriter{w: os.Stdout}
	var out io.Writer = ew
	if o.list {
		for _, r := range experiments.Registry() {
			fmt.Fprintf(out, "%-8s %s\n", r.ID, r.Title)
		}
		return exitCode(ew)
	}
	start := time.Now()
	switch {
	case o.workers != 0:
		// An explicit -workers N runs the throughput sweep at that width.
		err = experiments.RunThroughput(out, o.scale, o.workers)
	case o.exp == "":
		err = experiments.RunAll(out, o.scale)
	default:
		var r experiments.Runner
		r, err = experiments.Find(o.exp)
		if err == nil {
			err = r.Run(out, o.scale)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "carolbench:", err)
		return 1
	}
	// A failed write latches ew.err; exitCode reports it below.
	fmt.Fprintf(out, "\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
	return exitCode(ew)
}

// exitCode maps an accumulated write error to the process exit status.
func exitCode(out *errWriter) int {
	if out.err != nil {
		fmt.Fprintln(os.Stderr, "carolbench: writing output:", out.err)
		return 1
	}
	return 0
}
