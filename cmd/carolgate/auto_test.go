package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"carol/internal/chunked"
	"carol/internal/codecs"
	"carol/internal/jobs"
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
// every slab, mode never forwarded — and the gate's own bandit records the
// decision and the assembled outcome.
func TestGateAutoChunkedFanout(t *testing.T) {
	g, shards := newTestFleet(t, 3, func(cfg *gateConfig) {
		cfg.chunkThresholdKiB = 1
	})
	const nx, ny, nz = 64, 4, 4
	raw := rawField(nx * ny * nz) // 4 KiB, above the 1 KiB threshold

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
	if body := w.Body.Bytes(); len(body) < 4 || [4]byte(body[:4]) != chunked.Magic {
		t.Fatalf("fan-out body is not a CCH1 container")
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
	// The gate-local bandit saw the decision and the assembled ratio.
	sw := doGate(t, g, http.MethodGet, "/v1/selector", nil)
	if sw.Code != http.StatusOK {
		t.Fatalf("/v1/selector status %d", sw.Code)
	}
	var stats struct {
		Decisions int64 `json:"decisions"`
		Arms      []struct {
			Codec    string `json:"codec"`
			Outcomes int64  `json:"outcomes"`
		} `json:"arms"`
	}
	if err := json.Unmarshal(sw.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Decisions < 1 {
		t.Fatalf("gate selector decisions = %d after auto fan-out", stats.Decisions)
	}
	var sawOutcome bool
	for _, a := range stats.Arms {
		if a.Codec == chosen && a.Outcomes >= 1 {
			sawOutcome = true
		}
	}
	if !sawOutcome {
		t.Errorf("no recorded outcome for chosen codec %s in %+v", chosen, stats.Arms)
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

// TestGateAutoJobMeta: async jobs carry the chosen codec as result
// metadata — gate-chosen for chunked fan-outs, shard-chosen (via the
// relayed header) for whole-routed requests — and the result response
// republishes it as X-Carol-Codec-Chosen.
func TestGateAutoJobMeta(t *testing.T) {
	g, _ := newTestFleet(t, 3, func(cfg *gateConfig) {
		cfg.chunkThresholdKiB = 1
	})
	const nx, ny, nz = 64, 4, 4
	cases := []struct {
		name   string
		target string
		body   []byte
		// wantAny accepts any registered codec (gate decision);
		// otherwise the meta must equal wantExact (shard header).
		wantAny   bool
		wantExact string
	}{
		{
			name:    "chunked",
			target:  fmt.Sprintf("/v1/jobs/compress?mode=auto&rel=1e-3&dims=%dx%dx%d", nx, ny, nz),
			body:    rawField(nx * ny * nz),
			wantAny: true,
		},
		{
			name:      "whole",
			target:    "/v1/jobs/compress?mode=auto&rel=1e-3&dims=4x1x1",
			body:      rawField(4),
			wantExact: "szx",
		},
	}
	for _, tc := range cases {
		w := doGate(t, g, http.MethodPost, tc.target, tc.body)
		if w.Code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d: %s", tc.name, w.Code, w.Body.String())
		}
		var acc jobAccepted
		if err := json.Unmarshal(w.Body.Bytes(), &acc); err != nil {
			t.Fatalf("%s: accept decode: %v", tc.name, err)
		}
		st := pollJob(t, g, acc.ID)
		if st.State != jobs.StateDone {
			t.Fatalf("%s: job ended %s (%s), want done", tc.name, st.State, st.Error)
		}
		got := st.Meta["codec"]
		if tc.wantAny {
			if !knownCodec(got) {
				t.Fatalf("%s: job meta codec = %q, not a registered codec", tc.name, got)
			}
		} else if got != tc.wantExact {
			t.Fatalf("%s: job meta codec = %q, want %q", tc.name, got, tc.wantExact)
		}
		rw := doGate(t, g, http.MethodGet, acc.ResultURL, nil)
		if rw.Code != http.StatusOK {
			t.Fatalf("%s: result status %d: %s", tc.name, rw.Code, rw.Body.String())
		}
		if hdr := rw.Header().Get("X-Carol-Codec-Chosen"); hdr != got {
			t.Errorf("%s: result X-Carol-Codec-Chosen = %q, want %q (job meta)", tc.name, hdr, got)
		}
		if rw.Body.Len() == 0 {
			t.Errorf("%s: empty result body", tc.name)
		}
	}
}
