package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"carol/internal/chunked"
	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/pipeline"
)

// benchGate builds a gate over synthetic shard URLs with every shard
// healthy — no listeners, so the benchmark isolates the routing decision
// (ring lookup + health filter), not HTTP.
func benchGate(b *testing.B, shards int) *gate {
	b.Helper()
	urls := make([]string, shards)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://shard-%d:8081", i)
	}
	cfg := defaultGateConfig()
	g, err := newGate(cfg, urls)
	if err != nil {
		b.Fatalf("newGate: %v", err)
	}
	for _, name := range g.ring.Shards() {
		g.shards[name].healthy.Store(true)
	}
	return g
}

// routeDecision is the per-request routing work handleCompress pays
// before any byte leaves the gate: replica walk plus first-healthy scan.
func routeDecision(g *gate, key string) string {
	for _, shard := range g.ring.Lookup(key, g.ring.Len()) {
		if g.shards[shard].healthy.Load() {
			return shard
		}
	}
	return ""
}

func BenchmarkGateRoute(b *testing.B) {
	g := benchGate(b, 8)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("/v1/compress?codec=sz3&dims=%dx64x64", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if routeDecision(g, keys[i%len(keys)]) == "" {
			b.Fatal("no shard")
		}
	}
}

func BenchmarkGateRouteDegraded(b *testing.B) {
	g := benchGate(b, 8)
	// Half the fleet down: the walk pays the skip cost on every lookup.
	names := g.ring.Shards()
	for i, name := range names {
		g.shards[name].healthy.Store(i%2 == 0)
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("field/%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if routeDecision(g, keys[i%len(keys)]) == "" {
			b.Fatal("no shard")
		}
	}
}

// discardWriter is a client that reads the gate's answer and keeps none of
// it, so what the benchmark counts is the gate's own memory.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header  { return d.header }
func (d *discardWriter) WriteHeader(code int) { d.status = code }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// BenchmarkGateFanout1MiB is one fleet_mixed fanout_rel request — a 64³
// field, rel=, a named codec — through the whole gate over two in-process
// shards. The shards drain each slab without keeping it and answer a real,
// precomputed SZx stream, so bytes allocated per request are the gate's
// (and net/http's), and must stay under 1.5× the body: the body once, the
// shards' answers once, nothing that scales with either again.
func BenchmarkGateFanout1MiB(b *testing.B) {
	f, err := dataset.Generate("miranda", "density", dataset.Options{Nx: 64, Ny: 64, Nz: 64})
	if err != nil {
		b.Fatal(err)
	}
	var rawBuf bytes.Buffer
	if err := f.WriteRaw(&rawBuf); err != nil {
		b.Fatal(err)
	}
	raw := rawBuf.Bytes()
	szx, err := codecs.ByName("szx")
	if err != nil {
		b.Fatal(err)
	}
	eb := compressor.AbsBound(f, 1e-3)
	answers := map[[8]byte][]byte{} // by the slab's first two samples
	for i, slab := range pipeline.SplitField(f, 2) {
		stream, err := szx.Compress(slab, eb)
		if err != nil {
			b.Fatal(err)
		}
		answers[[8]byte(raw[i*len(raw)/2:])] = stream
	}
	urls := make([]string, 2)
	for i := range urls {
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
		mux.HandleFunc("/v1/compress", func(w http.ResponseWriter, r *http.Request) {
			var head [8]byte
			if _, err := io.ReadFull(r.Body, head[:]); err != nil {
				b.Errorf("shard read: %v", err)
			}
			if _, err := io.Copy(io.Discard, r.Body); err != nil {
				b.Errorf("shard read: %v", err)
			}
			stream := answers[head]
			w.Header().Set("Content-Length", strconv.Itoa(len(stream)))
			if _, err := w.Write(stream); err != nil {
				b.Errorf("shard write: %v", err)
			}
		})
		srv := httptest.NewServer(mux)
		defer srv.Close()
		urls[i] = srv.URL
	}
	g, err := newGate(defaultGateConfig(), urls)
	if err != nil {
		b.Fatal(err)
	}
	g.probeAll()
	want, err := chunked.Compress(szx, f, eb, chunked.Options{Chunks: 2})
	if err != nil {
		b.Fatal(err)
	}
	one := func() {
		w := &discardWriter{header: http.Header{}}
		g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/compress?codec=szx&rel=1e-3&dims=64x64x64", bytes.NewReader(raw)))
		if w.status != http.StatusOK || w.n != len(want) {
			b.Fatalf("status %d, %d bytes; want 200 and %d", w.status, w.n, len(want))
		}
	}
	one() // dial the shards
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perBody := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N) / float64(len(raw))
	b.ReportMetric(perBody, "alloc/body")
	if perBody > 1.5 {
		b.Errorf("the gate allocates %.2f× the body per fan-out, want at most 1.5×", perBody)
	}
}
