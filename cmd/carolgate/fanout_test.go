package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/httpkit"
	"carol/internal/pipeline"
)

// codecShard is a carolserve stand-in that really compresses: the two
// endpoints a fan-out talks to, built from the same httpkit request path
// carolserve uses, so a slab posted as a slice of the client's body is
// parsed, bounded, coded and refused exactly as a shard would. compresses
// counts the /v1/compress requests it receives.
func codecShard(t testing.TB, compresses *atomic.Int64) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("/v1/compress", func(w http.ResponseWriter, r *http.Request) {
		compresses.Add(1)
		req, err := httpkit.ParseCompress(r.URL.Query())
		if err != nil {
			httpkit.RequestError(w, err)
			return
		}
		f, err := httpkit.ReadField(r, req.Nx, req.Ny, req.Nz, nil)
		if err != nil {
			httpkit.RequestError(w, err)
			return
		}
		eb, err := req.Bound(f.ValueRange)
		if err != nil {
			httpkit.RequestError(w, err)
			return
		}
		codec, err := codecs.ByName(req.Codec)
		if err != nil {
			httpkit.RequestError(w, err)
			return
		}
		stream, err := codec.Compress(f, eb)
		if err != nil {
			httpkit.CodecError(w, err)
			return
		}
		// As carolserve does: the gate refuses a slab of undeclared length.
		w.Header().Set("Content-Length", strconv.Itoa(len(stream)))
		if _, err := w.Write(stream); err != nil {
			t.Logf("codec shard write: %v", err)
		}
	})
	mux.HandleFunc("/v1/decompress", func(w http.ResponseWriter, r *http.Request) {
		codec, err := codecs.ByName(r.URL.Query().Get("codec"))
		if err != nil {
			httpkit.RequestError(w, err)
			return
		}
		stream, err := httpkit.ReadBody(r, httpkit.MaxBody)
		if err != nil {
			httpkit.RequestError(w, err)
			return
		}
		f, err := codec.Decompress(stream)
		if err != nil {
			httpkit.Error(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		if err := f.WriteRaw(w); err != nil {
			t.Logf("codec shard write: %v", err)
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// newGateOver boots a gate over already-running shards, every one probed
// healthy.
func newGateOver(t testing.TB, urls []string, tweak func(*gateConfig)) *gate {
	t.Helper()
	cfg := defaultGateConfig()
	cfg.probeInterval = time.Hour // tests drive probeAll explicitly
	if tweak != nil {
		tweak(&cfg)
	}
	g, err := newGate(cfg, urls)
	if err != nil {
		t.Fatalf("newGate: %v", err)
	}
	g.probeAll()
	if got := len(g.healthyShards()); got != len(urls) {
		t.Fatalf("after probe sweep: %d healthy shards, want %d", got, len(urls))
	}
	return g
}

func rawOf(t testing.TB, f *field.Field) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteRaw(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGateFanoutMatchesPipelineCompress is the fan-out's differential: for
// every codec, shape and bound source, over 2 and 3 shards, the container
// the gate answers — slabs posted as slices of the client's body, answers
// written out part by part — is byte for byte the CPL1 container
// pipeline.New(codec, pipeline.Options{Blocks: n}).Compress builds locally,
// its ratio header describes those bytes, and the decompress fan-out
// returns exactly what decoding that container gives.
func TestGateFanoutMatchesPipelineCompress(t *testing.T) {
	fanoutDifferentialLeg(t, 2)
	fanoutDifferentialLeg(t, 3)
}

func fanoutDifferentialLeg(t *testing.T, nShards int) {
	shapes := [][3]int{{611, 1, 1}, {53, 37, 1}, {40, 33, 17}, {64, 64, 64}}
	if testing.Short() {
		shapes = shapes[:3]
	}
	urls := make([]string, nShards)
	for i := range urls {
		urls[i] = codecShard(t, new(atomic.Int64)).URL
	}
	g := newGateOver(t, urls, func(cfg *gateConfig) { cfg.chunkThresholdKiB = 1 })
	for _, s := range shapes {
		f, err := dataset.Generate("miranda", "density", dataset.Options{Nx: s[0], Ny: s[1], Nz: s[2]})
		if err != nil {
			t.Fatal(err)
		}
		raw := rawOf(t, f)
		dims := fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2])
		relEB := compressor.AbsBound(f, 1e-3)
		for _, c := range []struct {
			bound string
			eb    float64
		}{{"rel=1e-3", relEB}, {"abs=0.05", 0.05}, {"rel=1e-2&abs=0.05", 0.05}} {
			for _, name := range append([]string{"auto"}, codecs.ExtendedNames...) {
				what := fmt.Sprintf("%d shards %s %s %s", nShards, dims, name, c.bound)
				query := "codec=" + name
				if name == "auto" {
					query = "mode=auto"
				}
				w := doGate(t, g, http.MethodPost, "/v1/compress?"+query+"&"+c.bound+"&dims="+dims, raw)
				if w.Code != http.StatusOK {
					t.Errorf("%s: status %d: %s", what, w.Code, w.Body.String())
					continue
				}
				chosen := name
				if name == "auto" {
					chosen = w.Header().Get("X-Carol-Codec-Chosen")
				}
				codec, err := codecs.ByName(chosen)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				local := pipeline.New(codec, pipeline.Options{Blocks: nShards})
				want, err := local.Compress(f, c.eb)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !bytes.Equal(w.Body.Bytes(), want) {
					t.Errorf("%s: gate container (%d bytes) differs from pipeline's (%d bytes)", what, w.Body.Len(), len(want))
					continue
				}
				if got, wantRatio := w.Header().Get("X-Carol-Achieved-Ratio"),
					fmt.Sprintf("%.6g", float64(len(raw))/float64(len(want))); got != wantRatio {
					t.Errorf("%s: X-Carol-Achieved-Ratio %s, want %s", what, got, wantRatio)
				}
				if got := w.Header().Get("Content-Length"); got != fmt.Sprint(len(want)) {
					t.Errorf("%s: Content-Length %q, want %d", what, got, len(want))
				}
				dec, err := local.Decompress(want)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				w = doGate(t, g, http.MethodPost, "/v1/decompress?codec="+chosen, want)
				if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), rawOf(t, dec)) {
					t.Errorf("%s: decompress fan-out: status %d, %d bytes; want the local decode's %d",
						what, w.Code, w.Body.Len(), dec.SizeBytes())
				}
			}
		}
	}
}

// TestGateRelaysNonFiniteFieldAs400: a field with a NaN or ±Inf sample is
// the client's 400 through the gate, routed whole or fanned out. Each shard
// request is made once: a shard's 400 is a verdict no replica would change,
// so none is retried (a 500 was, on every replica, and came back a 503).
func TestGateRelaysNonFiniteFieldAs400(t *testing.T) {
	const n = 16 * 16 * 16
	for _, leg := range []struct {
		name         string
		thresholdKiB int
		maxHits      int64 // one request, or one per slab
	}{{"whole", 1024, 1}, {"fanout", 1, 3}} {
		var hits [3]atomic.Int64
		urls := make([]string, len(hits))
		for i := range urls {
			urls[i] = codecShard(t, &hits[i]).URL
		}
		g := newGateOver(t, urls, func(cfg *gateConfig) { cfg.chunkThresholdKiB = leg.thresholdKiB })
		for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			for _, q := range []string{"codec=szx&abs=0.1", "codec=zfp&rel=1e-3"} {
				raw := rawField(n)
				binary.LittleEndian.PutUint32(raw[4*(n-7):], math.Float32bits(bad))
				for i := range hits {
					hits[i].Store(0)
				}
				retried := g.retried.Value()
				w := doGate(t, g, http.MethodPost, "/v1/compress?"+q+"&dims=16x16x16", raw)
				var total int64
				for i := range hits {
					total += hits[i].Load()
				}
				if w.Code != http.StatusBadRequest || total > leg.maxHits || g.retried.Value() != retried {
					t.Errorf("%s %s with %g: status %d (%.80s) after %d shard requests, %d retries; want 400 after at most %d, no retry",
						leg.name, q, bad, w.Code, w.Body.String(), total, g.retried.Value()-retried, leg.maxHits)
				}
			}
		}
	}
}

// TestGateBodyLengthMustMatchDims: the gate refuses a field body that is
// longer or shorter than dims= says on every route that carries one —
// whole, fanned out, and the proxied estimate and predict — and no
// shard sees the request. It used to answer 200 with the tail dropped.
func TestGateBodyLengthMustMatchDims(t *testing.T) {
	g, shards := newTestFleet(t, 3, func(cfg *gateConfig) { cfg.chunkThresholdKiB = 4 })
	hits := func() int64 {
		var n int64
		for _, s := range shards {
			n += s.requests.Load()
		}
		return n
	}
	for _, c := range []struct {
		path string
		n    int // samples dims= declares
	}{
		{"/v1/compress?codec=fake&abs=0.1&dims=16x4x4", 256},    // 1 KiB: whole
		{"/v1/compress?codec=fake&abs=0.1&dims=16x16x16", 4096}, // 16 KiB: fan-out
		{"/v1/compress?mode=auto&rel=1e-3&dims=16x16x16", 4096}, // fan-out, parsed whole
		{"/v1/estimate?codec=szx&rel=1e-3&dims=16x4x4", 256},
		{"/v1/predict?ratio=10&dims=16x4x4", 256},
	} {
		for _, extra := range []int{+1, +c.n, -1, -c.n} {
			for _, declared := range []bool{true, false} {
				before := hits()
				req := httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(rawField(c.n+extra)))
				if !declared {
					req.ContentLength = -1
				}
				w := httptest.NewRecorder()
				g.ServeHTTP(w, req)
				if w.Code != http.StatusBadRequest {
					t.Errorf("%s with %+d samples (declared=%v): status %d (%.80s), want 400", c.path, extra, declared, w.Code, w.Body.String())
				}
				if hits() != before {
					t.Errorf("%s with %+d samples (declared=%v): a shard saw the refused request", c.path, extra, declared)
				}
			}
		}
	}
}

// traceConns hands every shard request a client trace that counts fresh
// and reused connections.
type traceConns struct {
	base          http.RoundTripper
	fresh, reused atomic.Int64
}

func (tc *traceConns) RoundTrip(r *http.Request) (*http.Response, error) {
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if info.Reused {
			tc.reused.Add(1)
		} else {
			tc.fresh.Add(1)
		}
	}}
	return tc.base.RoundTrip(r.WithContext(httptrace.WithClientTrace(r.Context(), trace)))
}

// TestShardConnectionsReused: once as many connections per shard exist as
// there are fan-outs in flight, no fan-out dials again. The gate used to
// run on the default transport, which keeps two idle connections per shard
// and closes the rest after every burst.
func TestShardConnectionsReused(t *testing.T) {
	const parallel = 6
	// During warm-up every shard holds its compress requests until parallel
	// of them have arrived, so exactly that many connections get opened.
	var warm atomic.Bool
	warm.Store(true)
	urls := make([]string, 2)
	for i := range urls {
		var arrived sync.WaitGroup
		arrived.Add(parallel)
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
		mux.HandleFunc("/v1/compress", func(w http.ResponseWriter, r *http.Request) {
			if warm.Load() {
				arrived.Done()
				arrived.Wait()
			}
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("echo shard: %v", err)
			}
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			if _, err := w.Write(body); err != nil {
				t.Errorf("echo shard: %v", err)
			}
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	g := newGateOver(t, urls, func(cfg *gateConfig) { cfg.chunkThresholdKiB = 1 })
	tc := &traceConns{base: g.client.Transport}
	g.client.Transport = tc
	raw := rawField(2048)
	wave := func() {
		var wg sync.WaitGroup
		for i := 0; i < parallel; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if w := doGate(t, g, http.MethodPost, "/v1/compress?codec=fake&abs=0.1&dims=2048", raw); w.Code != http.StatusOK {
					t.Errorf("fan-out status %d: %s", w.Code, w.Body.String())
				}
			}()
		}
		wg.Wait()
	}
	wave()
	warm.Store(false)
	tc.fresh.Store(0)
	tc.reused.Store(0)
	for i := 0; i < 10; i++ { // 60 fan-outs, 120 shard requests
		wave()
	}
	if fresh, reused := tc.fresh.Load(), tc.reused.Load(); fresh != 0 || reused != 10*parallel*2 {
		t.Errorf("after warm-up: %d shard requests dialled, %d reused a connection; want 0 and %d", fresh, reused, 10*parallel*2)
	}
}
