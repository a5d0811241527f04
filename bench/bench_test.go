package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},  // 19 * 0.5 = 9.5 beyond the median: not enough
		{20, 50, true},  // exactly 10 beyond p50
		{39, 50, true},  // p75 would leave 9.75
		{40, 75, true},  // exactly 10 beyond p75
		{100, 90, true}, // p95 would leave 5
		{199, 90, true}, // p95 would leave 9.95
		{200, 95, true}, // the count latency_p95_ms asks for
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || (ok && p != c.want) { //carol:allow floateq candidates are exact constants
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	if got := percentile(xs, 95); got != 190 { //carol:allow floateq integers are exact
		t.Errorf("p95 of 1..200 = %g, want 190 (10 samples beyond it)", got)
	}
	if got := percentile(xs, 100); got != 200 { //carol:allow floateq integers are exact
		t.Errorf("p100 = %g, want 200", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 { //carol:allow floateq halves are exact
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for i, pair := range [][2]float64{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Errorf("quartile %d = %g, want %g", i+1, pair[0], pair[1])
		}
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	for i, pair := range [][2]float64{{q1, 1.5}, {q2, 4}, {q3, 12}} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Errorf("quartile %d = %g, want %g", i+1, pair[0], pair[1])
		}
	}
	if s := spread([]float64{1, 2, 4, 8, 16}); math.Abs(s-10.5/4) > 1e-12 {
		t.Errorf("spread = %g, want %g", s, 10.5/4)
	}
}

// fakeClock advances only when someone sleeps or works on it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopDueTimesAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	// 100 requests/s: one due every 10 ms. Every request takes 4 ms, except
	// request 2, which stalls for 35 ms. With a single connection the stall
	// delays requests 3, 4 and 5, which go out late one after the other; by
	// request 6 the generator has caught up.
	service := func(i int) time.Duration {
		if i == 2 {
			return 35 * time.Millisecond
		}
		return 4 * time.Millisecond
	}
	got := runOpenLoop(clk, start, 100, 8, 1, func(i int) { clk.Sleep(service(i)) })

	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	wantLate := []float64{0, 0, 0, 25, 19, 13, 7, 1}
	wantLatency := []float64{4, 4, 35, 29, 23, 17, 11, 5}
	for i, tm := range got {
		if due := tm.due.Sub(start); due != time.Duration(i)*10*time.Millisecond {
			t.Errorf("request %d due at +%v, want +%d ms", i, due, 10*i)
		}
		if ms(tm.lateness()) != wantLate[i] { //carol:allow floateq whole milliseconds on a fake clock are exact
			t.Errorf("request %d went out %g ms late, want %g", i, ms(tm.lateness()), wantLate[i])
		}
		// Latency counts from the due time, so the stall of request 2 is
		// charged to the requests that queued behind it.
		if ms(tm.latency()) != wantLatency[i] { //carol:allow floateq whole milliseconds on a fake clock are exact
			t.Errorf("request %d latency %g ms, want %g", i, ms(tm.latency()), wantLatency[i])
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "parse", Start: 5, End: 15},     // 10 covered
		{ID: 3, Parent: 1, Name: "slab0", Start: 20, End: 60},    // 40 covered
		{ID: 4, Parent: 1, Name: "slab1", Start: 30, End: 70},    // overlaps slab0: 10 more
		{ID: 5, Parent: 1, Name: "overrun", Start: 95, End: 120}, // clipped to the parent: 5
		{ID: 6, Parent: 3, Name: "entropy", Start: 25, End: 45},  // a grandchild: not the request's
		{ID: 7, Parent: 0, Name: "replay", Start: 200, End: 230}, // a second root with no children
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - (10 + 40 + 10 + 5),
		2: 10,
		3: 40 - 20,
		4: 40,
		5: 25,
		6: 20,
		7: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestLatencySummaryCountsEverySample(t *testing.T) {
	// 189 operations of 10 ms, 11 that stalled for 300 ms and one that
	// failed. The stalls are part of what was served: they set p95 and miss
	// the limit, and so does the failure.
	var okLat []float64
	for i := 0; i < 200; i++ {
		l := 0.010
		if i%18 == 0 && i < 198 {
			l = 0.300
		}
		okLat = append(okLat, l)
	}
	res := &result{Metrics: make(map[string]float64)}
	if err := latencySummary(res, okLat, 201, 1); err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m["latency_p50_ms"] != 10 || m["latency_p95_ms"] != 300 { //carol:allow floateq the samples are copied, not computed
		t.Errorf("p50 = %g ms, p95 = %g ms; want 10, 300", m["latency_p50_ms"], m["latency_p95_ms"])
	}
	if want := 189.0 / 201; math.Abs(m["within_limit_share"]-want) > 1e-12 {
		t.Errorf("within_limit_share = %g, want %g", m["within_limit_share"], want)
	}
	if res.Samples != 200 {
		t.Errorf("Samples = %d, want 200", res.Samples)
	}
	// One sample fewer leaves 9.95 beyond p95: the percentile picker settles
	// for p90 and the run is refused.
	if err := latencySummary(res, okLat[:199], 199, 1); err == nil {
		t.Errorf("199 samples were accepted for latency_p95_ms")
	}
}

func TestOpTimesTotal(t *testing.T) {
	ot := newOpTimes(2)
	for _, c := range [][2]time.Duration{{10, 20}, {50, 90}, {11, 19}} {
		ot.add(0, c[0]*time.Second)
		ot.add(1, c[1]*time.Second)
	}
	if ot.total(0) != 71 || ot.total(1) != 129 { //carol:allow floateq whole seconds are exact
		t.Errorf("total = %g, %g; want 71, 129 (the disturbed cycle included)", ot.total(0), ot.total(1))
	}
}

// opDescs builds the operation lists of the two in-process workloads
// without generating any field.
func opDescs(seed uint64) []string {
	inputs := func(edge int) []*input {
		var out []*input
		for _, s := range heldOutSpecs(seeded(seed, streamFields), edge, edge, edge) {
			out = append(out, &input{spec: s})
		}
		return out
	}
	var descs []string
	for _, op := range libOpList(seed, inputs(64), inputs(sperrEdge)) {
		descs = append(descs, op.String())
	}
	for _, op := range bulkOpList(seed, inputs(64), inputs(sperrEdge)) {
		descs = append(descs, op.String())
	}
	for _, op := range serveOpList(seed, inputs(64)) {
		descs = append(descs, op.String())
	}
	return descs
}

func TestWorkloadDeterminism(t *testing.T) {
	a, b, c := opListHash(opDescs(7)), opListHash(opDescs(7)), opListHash(opDescs(8))
	if a != b {
		t.Errorf("same seed gave op-list hashes %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same op-list hash %s", a)
	}
	// The per-cycle weighting is part of the contract's definition of the
	// workloads: 16 : 4 : 4 : 4 fixed-ratio operations, 40/40/20 requests.
	if n := len(libOpList(1, make([]*input, 16), make([]*input, 16))); n != 28 {
		t.Errorf("lib_fixed_ratio cycle has %d operations, want 28", n)
	}
	if n := len(serveOpList(1, make([]*input, 16))); n != 25 {
		t.Errorf("serve_ratio cycle has %d requests, want 25", n)
	}
	total := 0
	for _, m := range fleetMix {
		total += m.n
	}
	if total != 40 {
		t.Errorf("fleet_mixed cycle has %d requests, want 40", total)
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	z := newZipf(32, 1.1)
	rng := seeded(1, streamOps)
	counts := make([]int, 32)
	for i := 0; i < 10000; i++ {
		counts[z.draw(rng)]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[7] || counts[7] <= counts[31] {
		t.Errorf("zipf draws are not skewed towards low ranks: %v", counts)
	}
	if counts[31] == 0 {
		t.Errorf("the last rank is never drawn")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "goodput_mbps", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 100}
	if v := verdict(lower, tight, []float64{105, 106, 104, 105, 105}); v != "ok" {
		t.Errorf("5 %% slower within a 10 %% bound: %s, want ok", v)
	}
	if v := verdict(lower, tight, []float64{115, 116, 114, 115, 115}); v != "regressed" {
		t.Errorf("15 %% slower: %s, want regressed", v)
	}
	if v := verdict(higher, tight, []float64{85, 86, 84, 85, 85}); v != "regressed" {
		t.Errorf("15 %% less goodput: %s, want regressed", v)
	}
	noisy := []float64{80, 120, 100, 90, 110}
	if v := verdict(lower, noisy, []float64{82, 118, 101, 92, 108}); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", v)
	}
	if v := verdict(lower, noisy, []float64{50, 60, 55, 52, 58}); v != "ok" {
		t.Errorf("every run better than every base run: %s, want ok", v)
	}
}

func TestHostSlowdown(t *testing.T) {
	t0 := time.Unix(2000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	h := &hostRef{}
	if s := h.slowdown(at(0), at(1000)); s != 1 { //carol:allow floateq 1 is returned as a constant
		t.Errorf("slowdown with no sample = %g, want 1 (numbers stay as measured)", s)
	}
	// Three samples inside the span and one that belongs to another.
	for i, secs := range []float64{0.012, 0.010, 0.014} {
		h.samples = append(h.samples, refSample{at(200 * i), secs})
	}
	h.samples = append(h.samples, refSample{at(5000), 0.030})
	if s, want := h.slowdown(at(0), at(1000)), 0.012/refNominal.Seconds(); math.Abs(s-want) > 1e-12 {
		t.Errorf("slowdown = %g, want %g", s, want)
	}

	// On a host 1.5 times slower than the reference the same work reads as
	// 100 MB/s and 300 ms; at reference speed it is 150 MB/s and 200 ms, which
	// meets the limit.
	res := &result{Metrics: map[string]float64{"goodput_mbps": 100}}
	atReferenceSpeed(res.Metrics, 1.5, "goodput_mbps")
	okLat := make([]float64, 200)
	for i := range okLat {
		okLat[i] = 0.300
	}
	if err := latencySummary(res, okLat, 200, 1.5); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"goodput_mbps": 150, "raw.goodput_mbps": 100,
		"latency_p95_ms": 200, "raw.latency_p95_ms": 300,
		"within_limit_share": 1, "raw.within_limit_share": 0,
	} {
		if math.Abs(res.Metrics[name]-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, res.Metrics[name], want)
		}
	}
}
