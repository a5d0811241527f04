package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/field"
)

// Workload and metric names are normative: BENCHMARK.json, README.md and
// later issues cite them verbatim.
const (
	wlLib   = "lib_fixed_ratio"
	wlBulk  = "codec_bulk"
	wlServe = "serve_ratio"
	wlFleet = "fleet_mixed"
)

// latencyLimit is the fixed limit within_limit_share is measured against.
const latencyLimit = 200 * time.Millisecond

// notApplicable is reported for an end-to-end metric on a workload it has
// no meaning for (ratio_miss_p50 where no operation names a target ratio).
// The contract wants every metric on every workload and never 0; a constant
// 1 has zero spread and can never read as a regression.
const notApplicable = 1.0

// env is what one run of one workload needs.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	// verifyScale multiplies the error bound outputs are verified against.
	// 1 is the real check; the -verify-scale test hook passes 0.5 to prove
	// that a violated bound makes the run fail.
	verifyScale float64
	nproc       int
	bins        *binaries // built lazily by the served workloads
	ref         *hostRef  // the host reference every timing is scaled by
	log         io.Writer
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the number of latency samples behind the percentiles,
	// Cycles the number of passes over the operation list, OpHash the digest
	// of that list.
	Samples  int      `json:"samples"`
	Cycles   int      `json:"cycles"`
	OpHash   string   `json:"op_hash"`
	Failures []string `json:"failures,omitempty"`
	Stamp    *stamp   `json:"stamp,omitempty"`

	spans []span
}

// fail records one failed operation, keeping the first few messages.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// workload is one traffic mix. run performs set-up, the timed window and
// verification, and fills the end-to-end metrics (untraced) or the
// per-layer metrics (traced).
type workload struct {
	name string
	run  func(e *env) (*result, error)
}

func workloads() []workload {
	return []workload{
		{wlLib, runLib},
		{wlBulk, runBulk},
		{wlServe, runServe},
		{wlFleet, runFleet},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// codecSet resolves names through the registry the programs use.
func codecSet(names []string) (map[string]compressor.Codec, error) {
	out := make(map[string]compressor.Codec, len(names))
	for _, n := range names {
		c, err := codecs.ByName(n)
		if err != nil {
			return nil, err
		}
		out[n] = c
	}
	return out, nil
}

var magics = map[string]byte{
	"szx":   compressor.MagicSZx,
	"zfp":   compressor.MagicZFP,
	"sz3":   compressor.MagicSZ3,
	"sperr": compressor.MagicSPERR,
}

// appliedBound reads the absolute error bound a single-codec stream was
// compressed under from its header.
func appliedBound(codec string, stream []byte) (float64, error) {
	h, _, err := compressor.ParseHeader(stream, magics[codec])
	if err != nil {
		return 0, fmt.Errorf("header: %w", err)
	}
	return h.EB, nil
}

// checkField verifies dims and max abs error of got against orig under the
// applied bound eb (scaled by the test hook).
func (e *env) checkField(orig, got *field.Field, eb float64) error {
	return compressor.CheckBound(orig, got, eb*e.verifyScale)
}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median of the times.
const setupRepeats = 3

// setupTimes holds the duration of each set-up of a run, in seconds: as
// measured, and at the reference host's speed (the host reference is sampled
// all through a set-up).
type setupTimes struct{ raw, atRef []float64 }

// report fills setup_s, the median over the run's set-ups.
func (s setupTimes) report(m map[string]float64) {
	m["setup_s"] = median(s.atRef)
	m["raw.setup_s"] = median(s.raw)
}

// repeatSetup runs setup setupRepeats times, tearing every instance but the
// last down again, and returns the last instance with the set-up times. A
// traced run reports no setup_s and sets up once.
func repeatSetup[T any](e *env, setup func() (T, error), teardown func(T) error) (T, setupTimes, error) {
	n := setupRepeats
	if e.trace {
		n = 1
	}
	var zero, last T
	var times setupTimes
	for i := 0; i < n; i++ {
		stop := e.ref.watch()
		start := time.Now()
		st, err := setup()
		end := time.Now()
		stop()
		if err != nil {
			return zero, times, err
		}
		secs := end.Sub(start).Seconds()
		times.raw = append(times.raw, secs)
		times.atRef = append(times.atRef, secs/e.ref.slowdown(start, end))
		if i < n-1 {
			if err := teardown(st); err != nil {
				return zero, times, err
			}
		}
		last = st
	}
	return last, times, nil
}

// latencySummary fills the latency-shaped end-to-end metrics from every
// operation of the timed window, none left out: okLat holds the latency, in
// seconds, of each one that succeeded, attempted counts them all, and a
// failed one misses the limit. The latencies are taken at the reference
// host's speed (slowdown, see hostref.go) before they are ranked or held
// against the limit; what was measured is kept as raw.<name>.
// latency_p95_ms is reported only when the window holds enough operations to
// support it (see tailPercentile; in a run that counts, every one of them
// succeeded and is a sample).
func latencySummary(res *result, okLat []float64, attempted int, slowdown float64) error {
	res.Samples = len(okLat)
	if p, ok := tailPercentile(attempted); !ok || p < 95 {
		return fmt.Errorf("%d operations in the window: latency_p95_ms needs %d samples beyond it, run for longer", attempted, minBeyond)
	}
	for _, v := range []struct {
		prefix   string
		slowdown float64
	}{{"raw.", 1}, {"", slowdown}} {
		ms := make([]float64, len(okLat))
		within := 0
		for i, l := range okLat {
			l /= v.slowdown
			ms[i] = 1e3 * l
			if l <= latencyLimit.Seconds() {
				within++
			}
		}
		res.Metrics[v.prefix+"latency_p50_ms"] = median(ms)
		res.Metrics[v.prefix+"latency_p95_ms"] = percentile(ms, 95)
		res.Metrics[v.prefix+"within_limit_share"] = float64(within) / float64(attempted)
	}
	return nil
}

// classMbps returns bytes over summed seconds per class, in the sorted
// order of the class names.
func classMbps(bytes map[string]int, secs map[string]float64) []float64 {
	out := make([]float64, 0, len(bytes))
	for _, k := range sortedKeys(bytes) {
		out = append(out, mbps(bytes[k], secs[k]))
	}
	return out
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hashOps digests an operation list (see opListHash).
func hashOps[T fmt.Stringer](ops []T) string {
	descs := make([]string, len(ops))
	for i, op := range ops {
		descs[i] = op.String()
	}
	return opListHash(descs)
}

// opTimes collects the duration of every execution of every operation:
// opTimes[i][c] is operation i in cycle c, in seconds. Every cycle runs the
// same operation list, so the rows are aligned.
type opTimes [][]float64

func newOpTimes(n int) opTimes { return make(opTimes, n) }

func (t opTimes) add(i int, d time.Duration) { t[i] = append(t[i], d.Seconds()) }

// total is the summed time of every execution of operation i.
func (t opTimes) total(i int) float64 {
	var sum float64
	for _, d := range t[i] {
		sum += d
	}
	return sum
}
