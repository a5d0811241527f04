package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"carol/internal/httpkit"
	"carol/internal/httpkit/kittest"
	"carol/internal/obs"
	"carol/internal/xrand"
)

// TestMetricsEndpoint drives real traffic through the server and checks
// the /metrics exposition carries the request counters, per-endpoint
// latency histograms, fraz iteration counts and estimator-error gauges
// the acceptance criteria name.
func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	_, body := testBody(t)

	// One fixed-ratio compress (exercises fraz) ...
	resp, err := http.Post(srv.URL+"/v1/compress?codec=szx&ratio=3&dims=24x24x8",
		"application/octet-stream", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ratio compress status %d", resp.StatusCode)
	}
	// ... and one rel= compress (exercises the online estimator-error pair).
	resp, err = http.Post(srv.URL+"/v1/compress?codec=szx&rel=1e-3&dims=24x24x8",
		"application/octet-stream", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rel compress status %d", resp.StatusCode)
	}
	if est := resp.Header.Get("X-Carol-Estimated-Ratio"); est == "" {
		t.Fatal("missing X-Carol-Estimated-Ratio header on rel= compress")
	}
	if trace := resp.Header.Get("X-Carol-Trace"); !strings.Contains(trace, "codec=") {
		t.Fatalf("X-Carol-Trace = %q, want codec= span", trace)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`http_requests_total{endpoint="/v1/compress",code="200"}`,
		`http_request_seconds_bucket{endpoint="/v1/compress",le=`,
		`fraz_search_runs_bucket{resolver="search",le=`,
		"fraz_ratio_miss_bucket",
		"fraz_search_compressor_runs_total",
		"fraz_surrogate_refine_runs_total",
		`secre_estimate_rel_error{codec="szx"}`,
		`codec_compress_seconds_bucket{codec="szx",le=`,
		"http_inflight_requests",
		`http_field_storage_total{result="reused"}`,
		`http_field_storage_total{result="allocated"}`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestDebugVarsEndpoint(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]any     `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Counters == nil || doc.Histograms == nil {
		t.Fatal("missing sections in /debug/vars")
	}
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(b) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, b)
	}
}

// TestConcurrentLoadAndGracefulShutdown is the acceptance-criteria load
// test: ≥32 concurrent requests through a bounded server under -race,
// then a clean graceful shutdown.
func TestConcurrentLoadAndGracefulShutdown(t *testing.T) {
	cfg := defaultConfig()
	cfg.maxInflight = 8 // small enough that the semaphore is really exercised
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: newServerWith(cfg)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	_, body := testBody(t)
	payload := body.Bytes()

	const n = 32
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/v1/compress?codec=szx&rel=1e-3&dims=24x24x8", base)
			if i%4 == 0 {
				url = fmt.Sprintf("%s/v1/compress?codec=szx&ratio=3&dims=24x24x8", base)
			}
			resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(payload))
			if err != nil {
				codes <- -1
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body) // drain for keep-alive
			_ = resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	wg.Wait()
	close(codes)
	ok, throttled := 0, 0
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			throttled++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
	t.Logf("load: %d ok, %d throttled", ok, throttled)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestOversizedContentLength413 checks the Content-Length fast path on
// /v1/decompress. The stdlib client refuses to declare a length it cannot
// send, so the request goes over a raw connection.
func TestOversizedContentLength413(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/decompress?codec=szx HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n", httpkit.MaxBody+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestMetricsRegistered sanity-checks that the obs default registry is the
// one the server reports from (shared with the instrumented internals).
func TestMetricsRegistered(t *testing.T) {
	s := newServerWith(defaultConfig())
	if s.reg != obs.Default {
		t.Fatal("server must expose obs.Default so internal package metrics appear in /metrics")
	}
}

// TestMetricLabelCardinality sends carolserve's request table twice, every
// query value, model name, codec name and unknown path fresh and random,
// and requires the second pass to mint no /metrics series: a label value
// derived from a request before its membership check (the predict model
// label above the loaded-set lookup, say) fails here.
func TestMetricLabelCardinality(t *testing.T) {
	dir := t.TempDir()
	publishTestModel(t, dir, 1)
	s := modelServer(t, dir)
	_, body := probeField(t)
	rng := xrand.New(29)
	fresh := func() string { return fmt.Sprintf("x%x", rng.Uint64()) }
	num := func(lo float64) string { return strconv.FormatFloat(lo*(1+rng.Float64()), 'g', -1, 64) }
	kittest.LabelsBounded(t, s, func() {
		for _, target := range []string{
			"POST /v1/compress?codec=" + fresh() + "&rel=1e-3&dims=8x8x4",
			"POST /v1/compress?codec=szx&rel=" + num(1e-3) + "&dims=8x8x4",
			"POST /v1/compress?codec=zfp&abs=" + num(0.1) + "&stream=1&workers=2&dims=8x8x4",
			"POST /v1/compress?codec=szx&rel=" + fresh() + "&dims=8x8x4",
			"POST /v1/compress?codec=szx&ratio=" + fresh() + "&dims=8x8x4",
			"POST /v1/compress?codec=szx&rel=1e-3&stream=1&workers=" + fresh() + "&dims=8x8x4",
			"POST /v1/compress?mode=" + fresh() + "&rel=1e-3&dims=8x8x4",
			"POST /v1/compress?mode=auto&rel=1e-3&target=" + fresh() + "&dims=8x8x4",
			"POST /v1/compress?codec=szx&rel=1e-3&dims=" + fresh(),
			"POST /v1/compress?codec=szx&rel=1e-3&dims=8x8x4&" + fresh() + "=" + fresh(),
			"POST /v1/decompress?codec=" + fresh(),
			"POST /v1/estimate?codec=" + fresh() + "&rel=1e-3&dims=8x8x4",
			"POST /v1/estimate?codec=szx&rel=" + num(1e-3) + "&dims=8x8x4",
			"POST /v1/predict?model=" + fresh() + "&ratio=10&dims=8x8x4",
			"POST /v1/predict?model=szx&ratio=" + num(10) + "&dims=8x8x4",
			"POST /v1/predict?model=szx&ratio=" + fresh() + "&dims=8x8x4",
			"GET /v1/models?" + fresh() + "=" + fresh(),
			"GET /v1/codecs/" + fresh(),
			"GET /v1/" + fresh(),
			"POST /" + fresh(),
			"GET /metrics",
		} {
			method, path, _ := strings.Cut(target, " ")
			s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, bytes.NewReader(body)))
		}
	})
}
