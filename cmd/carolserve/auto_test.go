package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/field"
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

// missCounts reads every codec's selector_prediction_miss count.
func missCounts() map[string]int64 {
	out := make(map[string]int64)
	for _, name := range codecs.ExtendedNames {
		out[name] = obs.Default.Histogram(obs.Label("selector_prediction_miss", "codec", name), nil).Count()
	}
	return out
}

// TestAutoCompressSync: mode=auto picks a registered codec, reports it in
// X-Carol-Codec-Chosen, the stream round-trips through /v1/decompress with
// that codec within bound, /v1/selector counts the decision, and the
// chosen codec's prediction miss is observed once.
func TestAutoCompressSync(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	f, body := testBody(t)
	before := missCounts()

	resp, err := http.Post(srv.URL+"/v1/compress?mode=auto&rel=1e-3&dims=24x24x8",
		"application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("auto compress: status %d, %v", resp.StatusCode, err)
	}
	chosen := resp.Header.Get("X-Carol-Codec-Chosen")
	if !knownCodec(chosen) {
		t.Fatalf("X-Carol-Codec-Chosen = %q, not a registered codec", chosen)
	}
	if resp.Header.Get("X-Carol-Achieved-Ratio") == "" {
		t.Error("missing X-Carol-Achieved-Ratio")
	}
	if resp.Header.Get("X-Carol-Predicted-Ratio") == "" {
		t.Error("missing X-Carol-Predicted-Ratio")
	}

	resp, err = http.Post(srv.URL+"/v1/decompress?codec="+chosen,
		"application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress: status %d, %v", resp.StatusCode, err)
	}
	g, err := field.ReadRaw("rt", f.Nx, f.Ny, f.Nz, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := compressor.CheckBound(f, g, compressor.AbsBound(f, 1e-3)); err != nil {
		t.Fatalf("auto round trip out of bound: %v", err)
	}

	sresp, err := http.Get(srv.URL + "/v1/selector")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Decisions int64 `json:"decisions"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Decisions < 1 {
		t.Fatalf("selector decisions = %d after auto request", stats.Decisions)
	}
	after := missCounts()
	for _, name := range codecs.ExtendedNames {
		want := before[name]
		if name == chosen {
			want++
		}
		if after[name] != want {
			t.Errorf("selector_prediction_miss_count{codec=%q} went %d -> %d, want %d", name, before[name], after[name], want)
		}
	}
}

// TestAutoCompressStream: mode=auto composes with stream=1 — the body is a
// CPL1 container decodable with the chosen codec.
func TestAutoCompressStream(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	f, body := testBody(t)

	resp, err := http.Post(srv.URL+"/v1/compress?mode=auto&rel=1e-3&stream=1&dims=24x24x8",
		"application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("auto stream compress: status %d, %v", resp.StatusCode, err)
	}
	chosen := resp.Header.Get("X-Carol-Codec-Chosen")
	if !knownCodec(chosen) {
		t.Fatalf("X-Carol-Codec-Chosen = %q, not a registered codec", chosen)
	}
	if got := resp.Trailer.Get("X-Carol-Achieved-Ratio"); got == "" {
		t.Error("missing X-Carol-Achieved-Ratio trailer")
	}
	if [4]byte(stream[:4]) != pipeline.Magic {
		t.Fatalf("stream=1 body does not start with CPL1: % x", stream[:4])
	}
	codec, err := codecs.ByName(chosen)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pipeline.New(codec, pipeline.Options{}).DecompressStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if err := compressor.CheckBound(f, g, compressor.AbsBound(f, 1e-3)); err != nil {
		t.Fatalf("auto stream round trip out of bound: %v", err)
	}
}

// TestAutoCompressTarget: target= asks for the cheapest codec predicted to
// reach the ratio; the request must succeed and name a registered codec.
func TestAutoCompressTarget(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	_, body := testBody(t)

	resp, err := http.Post(srv.URL+"/v1/compress?mode=auto&rel=1e-2&target=4&dims=24x24x8",
		"application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto target compress: status %d", resp.StatusCode)
	}
	if chosen := resp.Header.Get("X-Carol-Codec-Chosen"); !knownCodec(chosen) {
		t.Fatalf("X-Carol-Codec-Chosen = %q", chosen)
	}
}

// TestAutoCompressBadRequests: the mode=auto parameter surface rejects
// malformed combinations with 400s, not panics or silent fallbacks.
func TestAutoCompressBadRequests(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	cases := []struct {
		name  string
		query string
	}{
		{"bogus mode", "mode=banana&rel=1e-3&dims=8x8x1"},
		{"auto with ratio", "mode=auto&ratio=10&dims=8x8x1"},
		{"auto with codec", "mode=auto&codec=sz3&rel=1e-3&dims=8x8x1"},
		{"auto without bound", "mode=auto&dims=8x8x1"},
		{"bad target", "mode=auto&rel=1e-3&target=-2&dims=8x8x1"},
		{"target without auto", "codec=sz3&rel=1e-3&target=4&dims=8x8x1"},
	}
	for _, tc := range cases {
		body := bytes.NewReader(make([]byte, 8*8*4))
		resp, err := http.Post(srv.URL+"/v1/compress?"+tc.query, "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, strings.TrimSpace(string(msg)))
		}
	}
}

// TestSelectorEndpointMethod: /v1/selector is GET-only.
func TestSelectorEndpointMethod(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/selector", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/selector = %d, want 405", resp.StatusCode)
	}
}

// TestAutoAnswersIgnoreRequestOrder: a mode=auto answer is a pure function
// of (field, bound, target). Two fresh servers get the same twelve requests
// (three fields × two bounds, with and without target=), one in order and
// one reversed; every body and X-Carol-Codec-Chosen must match.
func TestAutoAnswersIgnoreRequestOrder(t *testing.T) {
	type request struct{ target, body string }
	var reqs []request
	for _, s := range []struct{ dataset, field string }{
		{"miranda", "density"}, {"nyx", "temperature"}, {"hurricane", "U"},
	} {
		f, err := dataset.Generate(s.dataset, s.field, dataset.Options{Nx: 16, Ny: 16, Nz: 16})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.WriteRaw(&buf); err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"rel=1e-3", "rel=1e-2", "rel=1e-3&target=4", "rel=1e-2&target=8"} {
			reqs = append(reqs, request{"/v1/compress?mode=auto&dims=16x16x16&" + q, buf.String()})
		}
	}
	type answer struct{ chosen, body string }
	serve := func(order []int) map[int]answer {
		h := newServerWith(defaultConfig())
		out := make(map[int]answer)
		for _, i := range order {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, reqs[i].target, strings.NewReader(reqs[i].body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", reqs[i].target, rec.Code, rec.Body)
			}
			out[i] = answer{rec.Header().Get("X-Carol-Codec-Chosen"), rec.Body.String()}
		}
		return out
	}
	forward, backward := make([]int, len(reqs)), make([]int, len(reqs))
	for i := range reqs {
		forward[i], backward[len(reqs)-1-i] = i, i
	}
	a, b := serve(forward), serve(backward)
	for i, r := range reqs {
		if a[i].chosen != b[i].chosen || a[i].body != b[i].body {
			t.Errorf("request %d (%s): chose %s (%d bytes) in order, %s (%d bytes) reversed",
				i, r.target, a[i].chosen, len(a[i].body), b[i].chosen, len(b[i].body))
		}
	}
}
