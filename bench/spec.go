package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: it is the
// single source of metric names, units, directions and bounds, so the
// program and the contract file cannot drift apart.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read %s (run from the root of the checkout): %w", path, err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if s.RunSeconds < 1 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: need run_seconds, end_to_end and per_layer", path)
	}
	return &s, nil
}

// reported returns the metric list a run of this kind must print.
func (s *benchSpec) reported(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// printContract writes the one JSON object the driver reads as the last
// line of standard output.
func printContract(w io.Writer, res *result, spec *benchSpec) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value)}
	for _, m := range spec.reported(res.Trace) {
		out.Metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printHuman prints every metric of the run by name with its unit, the
// sample counts behind the percentiles and the first failures.
func printHuman(w io.Writer, res *result, spec *benchSpec) {
	kind := "end-to-end (tracing off)"
	if res.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n%s  seed=%d  %s\n", res.Workload, res.Seed, kind)
	fmt.Fprintf(w, "  attempted=%d failed=%d fail_share=%.4g correct=%v  cycles=%d latency_samples=%d op_hash=%s\n",
		res.Attempted, res.Failed, failShare(res), res.Correct, res.Cycles, res.Samples, res.OpHash)
	if !res.Trace {
		if p, ok := tailPercentile(res.Samples); ok {
			fmt.Fprintf(w, "  highest percentile with >= %d samples beyond it: p%g\n", minBeyond, p)
		}
	}
	specs := spec.reported(res.Trace)
	for _, m := range specs {
		v := res.Metrics[m.Name]
		if res.Trace && v == 0 { //carol:allow floateq exactly 0 marks a layer the workload never called
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-8s (%s is better)\n", m.Name, v, m.Unit, m.Better)
	}
	if res.Trace {
		fmt.Fprintf(w, "  (layers not exercised by this workload read 0 and are not listed)\n")
	}
	// Anything a workload reports beyond the contract (diagnostics).
	known := make(map[string]bool, len(specs))
	for _, m := range specs {
		known[m.Name] = true
	}
	var extra []string
	for name := range res.Metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "  %-34s %14.6g (diagnostic)\n", name, res.Metrics[name])
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func failShare(res *result) float64 {
	if res.Attempted == 0 {
		return 1
	}
	return float64(res.Failed) / float64(res.Attempted)
}
