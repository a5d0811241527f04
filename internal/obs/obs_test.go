package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
	if c2 := r.Counter("reqs_total"); c2 != c {
		t.Fatal("get-or-create returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("Value() = %g, want 2.5", got)
	}
	g.Add(-1.5)
	if got := g.Value(); got != 1 {
		t.Fatalf("after Add: Value() = %g, want 1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, math.NaN()} {
		h.Observe(v)
	}
	bounds, counts := h.Snapshot()
	if len(bounds) != 4 || !math.IsInf(bounds[3], 1) {
		t.Fatalf("bounds = %v", bounds)
	}
	want := []int64{2, 1, 1, 1} // 0.5 and 1 (inclusive) in le=1; NaN dropped
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("Count() = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-556.5) > 1e-9 {
		t.Fatalf("Sum() = %g, want 556.5", got)
	}
}

func TestHistogramFirstRegistrationWins(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("h", []float64{1, 2})
	h2 := r.Histogram("h", []float64{10, 20, 30})
	if h1 != h2 {
		t.Fatal("second registration returned a different histogram")
	}
	bounds, _ := h1.Snapshot()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v, want first registration's", bounds)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering counter name as gauge did not panic")
		}
	}()
	r.Gauge("x")
}

func TestLabel(t *testing.T) {
	got := Label("http_requests_total", "endpoint", "/v1/compress", "code", "200")
	want := `http_requests_total{endpoint="/v1/compress",code="200"}`
	if got != want {
		t.Fatalf("Label = %q, want %q", got, want)
	}
	if got := Label("m", "k", `a"b\c`); got != `m{k="a\"b\\c"}` {
		t.Fatalf("escaped Label = %q", got)
	}
	if got := Label("plain"); got != "plain" {
		t.Fatalf("no-label Label = %q", got)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(1, 1, 4)
	for i, want := range []float64{1, 2, 3, 4} {
		if lin[i] != want {
			t.Fatalf("LinearBuckets = %v", lin)
		}
	}
	exp := ExpBuckets(1e-6, 4, 3)
	if exp[0] != 1e-6 || exp[2] != 1.6e-5 {
		t.Fatalf("ExpBuckets = %v", exp)
	}
	if n := len(LatencyBuckets()); n != 13 {
		t.Fatalf("LatencyBuckets len = %d", n)
	}
}

// TestConcurrentObserve exercises every hot-path operation from many
// goroutines under -race and checks the totals are exact (no lost updates).
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", LatencyBuckets())
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
				// Concurrent get-or-create of the same names must be safe too.
				r.Counter("c").Add(0)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge = %g, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "has space", "has\nnewline"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds did not panic")
		}
	}()
	r.Histogram("bad", []float64{1, 1})
}

func TestSplitName(t *testing.T) {
	base, labels := splitName(`m{a="1",b="2"}`)
	if base != "m" || labels != `a="1",b="2"` {
		t.Fatalf("splitName = %q, %q", base, labels)
	}
	base, labels = splitName("plain")
	if base != "plain" || labels != "" {
		t.Fatalf("splitName plain = %q, %q", base, labels)
	}
}

func TestDefaultRegistryShared(t *testing.T) {
	name := "obs_test_default_counter"
	Default.Counter(name).Inc()
	var sb strings.Builder
	if err := Default.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), name+" ") {
		t.Fatal("default registry exposition missing test counter")
	}
}
