// Command bench is the repository's benchmark: four seeded workloads that
// measure the fixed-ratio library path, the codec kernels, carolserve's
// ratio= path and the carolgate fleet, end to end with tracing off and
// layer by layer with tracing on. See README.md in this directory and
// BENCHMARK.json at the root.
//
//	go run ./bench -seed 1                       all workloads, untraced then traced
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                             one run, one JSON line (the contract)
//	go run ./bench -compare a.jsonl b.jsonl      label every (metric, workload) pair
//	go run ./bench -sweep -seed 1                fleet_mixed at three rates (not gated)
//
// It must be started from the root of the checkout: it builds ./cmd/... and
// keeps everything it writes under bench/out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	// A signal must not leave servers behind: kill them, then go.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killLeftBehind()
		os.Exit(130)
	}()
	code := 1
	defer func() {
		// Also reached when run panics: the children die before the panic
		// is reported.
		if left := killLeftBehind(); len(left) > 0 {
			fmt.Fprintf(os.Stderr, "bench: children left behind and killed: %s\n", strings.Join(left, ", "))
			if code == 0 {
				code = 1
			}
		}
		if r := recover(); r != nil {
			panic(r)
		}
		os.Exit(code)
	}()
	code = run()
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run only this workload and print the contract's JSON line (default: all, untraced then traced)")
		seed         = flag.Uint64("seed", 1, "workload seed: picks time steps, targets, pairing, order and zipf draws")
		seconds      = flag.Float64("seconds", 0, "measured window per run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from a traced run")
		verifyScale  = flag.Float64("verify-scale", 1, "test hook: scale the error bound outputs are verified against (0.5 must make the run fail)")
		outPath      = flag.String("out", "", "append one JSON line per run to this file (default with no -workload: bench/out/runs.jsonl)")
		compare      = flag.Bool("compare", false, "compare result sets: -compare base.jsonl [change.jsonl]")
		sweep        = flag.Bool("sweep", false, "run fleet_mixed at three fixed rates and report the highest that meets the latency limit")
	)
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		return runCompare(spec, flag.Args())
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the root of the checkout (no go.mod here)")
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	e := &env{
		seed: *seed, seconds: *seconds, verifyScale: *verifyScale,
		nproc: nproc, log: os.Stderr, ref: newHostRef(),
	}
	st := newStamp(*seed)

	if *sweep {
		if err := runSweep(e); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}

	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
			return 2
		}
		e.trace = *trace != 0
		res, err := runOne(e, w, spec, st)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := appendResult(*outPath, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printHuman(os.Stderr, res, spec)
		if err := printContract(os.Stdout, res, spec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	// The full suite: every workload with tracing off, then traced.
	if *outPath == "" {
		*outPath = filepath.Join("bench", "out", "runs.jsonl")
	}
	code := 0
	for _, traced := range []bool{false, true} {
		for _, w := range workloads() {
			e.trace = traced
			res, err := runOne(e, w, spec, st)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if err := appendResult(*outPath, res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printHuman(os.Stdout, res, spec)
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne runs one workload, completes its metric set against the contract
// and, for a traced run, writes the spans.
func runOne(e *env, w workload, spec *benchSpec, st *stamp) (*result, error) {
	e.logf("== %s seed=%d seconds=%g trace=%v", w.name, e.seed, e.seconds, e.trace)
	start := time.Now()
	res, err := w.run(e)
	if err != nil {
		return nil, err
	}
	res.Metrics["bench.host_ref_ms"] = 1e3 * refNominal.Seconds() * e.ref.slowdown(start, time.Now())
	res.Seed, res.Trace, res.Stamp = e.seed, e.trace, st
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if e.trace {
		if e.bins != nil {
			res.Metrics["bench.build_s"] = e.bins.buildS
		}
		// A layer this workload does not exercise did no work: it reads 0.
		for _, m := range spec.PerLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				res.Metrics[m.Name] = 0
			}
		}
		path := filepath.Join("bench", "out", "trace-"+w.name+".jsonl")
		if err := writeSpans(path, res.spans); err != nil {
			return nil, err
		}
		e.logf("   %d spans -> %s", len(res.spans), path)
	} else {
		for _, m := range spec.EndToEnd {
			if _, ok := res.Metrics[m.Name]; !ok {
				return nil, fmt.Errorf("%s did not report end-to-end metric %s", w.name, m.Name)
			}
		}
	}
	return res, nil
}

// stamp records where and how a result was produced.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
}

func newStamp(seed uint64) *stamp {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &stamp{
		Commit: commit, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed,
	}
}

// appendResult appends res as one JSON line to path ("" = nowhere).
func appendResult(path string, res *result) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
