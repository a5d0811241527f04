package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"carol/internal/codecs"
	"carol/internal/obs"
	"carol/internal/pipeline"
)

// knownCodec reports whether name is in the registered extended set.
func knownCodec(name string) bool {
	for _, n := range codecs.ExtendedNames {
		if n == name {
			return true
		}
	}
	return false
}

// TestGateAutoChunkedFanout: mode=auto on a chunk-eligible request resolves
// the codec at the gate BEFORE the slab split — one decision, one codec on
// every slab, mode never forwarded — and the gate's own selector counts the
// decision and observes the assembled ratio's prediction miss.
func TestGateAutoChunkedFanout(t *testing.T) {
	g, shards := newTestFleet(t, 3, func(cfg *gateConfig) {
		cfg.chunkThresholdKiB = 1
	})
	const nx, ny, nz = 64, 4, 4
	raw := rawField(nx * ny * nz) // 4 KiB, above the 1 KiB threshold
	missCount := func(name string) int64 {
		return obs.Default.Histogram(obs.Label("selector_prediction_miss", "codec", name), nil).Count()
	}
	before := make(map[string]int64)
	for _, name := range codecs.ExtendedNames {
		before[name] = missCount(name)
	}

	w := doGate(t, g, http.MethodPost,
		fmt.Sprintf("/v1/compress?mode=auto&rel=1e-3&dims=%dx%dx%d", nx, ny, nz), raw)
	if w.Code != http.StatusOK {
		t.Fatalf("auto fan-out status %d: %s", w.Code, w.Body.String())
	}
	chosen := w.Header().Get("X-Carol-Codec-Chosen")
	if !knownCodec(chosen) {
		t.Fatalf("X-Carol-Codec-Chosen = %q, not a registered codec", chosen)
	}
	if got := w.Header().Get("X-Carol-Fanout-Chunks"); got != "3" {
		t.Fatalf("X-Carol-Fanout-Chunks = %q, want 3", got)
	}
	if body := w.Body.Bytes(); len(body) < 4 || [4]byte(body[:4]) != pipeline.Magic {
		t.Fatalf("fan-out body is not a CPL1 container")
	}
	// Every slab request must carry the single chosen codec, never mode=.
	for i, fs := range shards {
		rq, _ := fs.lastCompressQuery.Load().(string)
		if rq == "" {
			t.Fatalf("shard %d received no compress request", i)
		}
		q, err := url.ParseQuery(rq)
		if err != nil {
			t.Fatalf("shard %d query %q: %v", i, rq, err)
		}
		if got := q.Get("codec"); got != chosen {
			t.Errorf("shard %d slab codec = %q, want %q", i, got, chosen)
		}
		if q.Get("mode") != "" {
			t.Errorf("shard %d slab request carries mode=%q; auto must resolve at the gate", i, q.Get("mode"))
		}
		if q.Get("abs") == "" {
			t.Errorf("shard %d slab request missing pinned abs= bound", i)
		}
	}
	// The gate-local selector counted the decision and scored its
	// prediction against the assembled ratio.
	sw := doGate(t, g, http.MethodGet, "/v1/selector", nil)
	if sw.Code != http.StatusOK {
		t.Fatalf("/v1/selector status %d", sw.Code)
	}
	var stats struct {
		Decisions int64 `json:"decisions"`
	}
	if err := json.Unmarshal(sw.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Decisions < 1 {
		t.Fatalf("gate selector decisions = %d after auto fan-out", stats.Decisions)
	}
	for _, name := range codecs.ExtendedNames {
		want := before[name]
		if name == chosen {
			want++
		}
		if got := missCount(name); got != want {
			t.Errorf("selector_prediction_miss_count{codec=%q} went %d -> %d, want %d", name, before[name], got, want)
		}
	}
}

// TestGateAutoWholeRelaysChosenHeader: requests that route whole (below
// the chunk threshold, or stream=1) forward mode=auto verbatim to the
// shard and relay the shard's X-Carol-Codec-Chosen back to the client.
func TestGateAutoWholeRelaysChosenHeader(t *testing.T) {
	g, _ := newTestFleet(t, 3, func(cfg *gateConfig) {
		cfg.chunkThresholdKiB = 1
	})
	for _, target := range []string{
		"/v1/compress?mode=auto&rel=1e-3&dims=4x1x1",           // below threshold
		"/v1/compress?mode=auto&rel=1e-3&stream=1&dims=64x4x4", // stream routes whole
	} {
		body := rawField(4)
		if strings.Contains(target, "stream=1") {
			body = rawField(64 * 4 * 4)
		}
		w := doGate(t, g, http.MethodPost, target, body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, w.Code, w.Body.String())
		}
		// The fake shard answers mode=auto with szx; the gate must relay it.
		if got := w.Header().Get("X-Carol-Codec-Chosen"); got != "szx" {
			t.Errorf("%s: X-Carol-Codec-Chosen = %q, want szx (relayed from shard)", target, got)
		}
	}
}

// TestGateAutoBadRequests: malformed mode/target combinations on the
// chunked fan-out path are client errors, not fan-out failures.
func TestGateAutoBadRequests(t *testing.T) {
	g, _ := newTestFleet(t, 3, func(cfg *gateConfig) {
		cfg.chunkThresholdKiB = 1
	})
	const nx, ny, nz = 64, 4, 4
	cases := []struct {
		name  string
		query string
	}{
		{"bogus mode", "mode=banana&rel=1e-3"},
		{"auto with codec", "mode=auto&codec=sz3&rel=1e-3"},
		{"bad target", "mode=auto&rel=1e-3&target=-2"},
		{"target without auto", "codec=szx&rel=1e-3&target=4"},
		{"infinite abs", "codec=szx&abs=%2BInf"},
		{"NaN rel", "codec=szx&rel=NaN"},
		{"NaN target", "mode=auto&rel=1e-3&target=NaN"},
	}
	for _, tc := range cases {
		w := doGate(t, g, http.MethodPost,
			fmt.Sprintf("/v1/compress?%s&dims=%dx%dx%d", tc.query, nx, ny, nz),
			rawField(nx*ny*nz))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, w.Code, strings.TrimSpace(w.Body.String()))
		}
	}
}
