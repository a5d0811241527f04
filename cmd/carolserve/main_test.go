package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/httpkit/kittest"
)

func testBody(t *testing.T) (*field.Field, *bytes.Buffer) {
	t.Helper()
	f, err := dataset.Generate("miranda", "density", dataset.Options{Nx: 24, Ny: 24, Nz: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteRaw(&buf); err != nil {
		t.Fatal(err)
	}
	return f, &buf
}

func TestCodecsEndpoint(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/codecs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 {
		t.Fatalf("codecs = %v", names)
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	f, body := testBody(t)

	resp, err := http.Post(srv.URL+"/v1/compress?codec=sz3&rel=1e-3&dims=24x24x8",
		"application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: status %d, %v", resp.StatusCode, err)
	}
	achieved, err := strconv.ParseFloat(resp.Header.Get("X-Carol-Achieved-Ratio"), 64)
	if err != nil || achieved <= 1 {
		t.Fatalf("achieved header %q", resp.Header.Get("X-Carol-Achieved-Ratio"))
	}

	resp, err = http.Post(srv.URL+"/v1/decompress?codec=sz3",
		"application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress status %d", resp.StatusCode)
	}
	if dims := resp.Header.Get("X-Carol-Dims"); dims != "24x24x8" {
		t.Fatalf("dims header %q", dims)
	}
	g, err := field.ReadRaw("resp", 24, 24, 8, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e-3 * f.ValueRange()
	if err := f.Equalish(g, eb*1.01); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingCompressRoundTrip(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	f, body := testBody(t)

	resp, err := http.Post(srv.URL+"/v1/compress?codec=sz3&rel=1e-3&stream=1&workers=2&dims=24x24x8",
		"application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stream compress: status %d, %v", resp.StatusCode, err)
	}
	if len(stream) < 4 || string(stream[:4]) != "CPL1" {
		t.Fatalf("stream=1 did not answer a CPL1 container (got %d bytes)", len(stream))
	}
	// The achieved ratio is only known after the body: it arrives as a trailer.
	achieved, err := strconv.ParseFloat(resp.Trailer.Get("X-Carol-Achieved-Ratio"), 64)
	if err != nil || achieved <= 1 {
		t.Fatalf("achieved trailer %q", resp.Trailer.Get("X-Carol-Achieved-Ratio"))
	}

	// /v1/decompress must auto-detect the container by its magic.
	resp, err = http.Post(srv.URL+"/v1/decompress?codec=sz3",
		"application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress status %d", resp.StatusCode)
	}
	g, err := field.ReadRaw("resp", 24, 24, 8, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e-3 * f.ValueRange()
	if err := f.Equalish(g, eb*1.01); err != nil {
		t.Fatal(err)
	}

	_, body = testBody(t)
	resp, err = http.Post(srv.URL+"/v1/compress?codec=sz3&rel=1e-3&stream=1&workers=0&dims=24x24x8",
		"application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("workers=0: status %d, want 400", resp.StatusCode)
	}
}

func TestCompressAbsBoundEndpoint(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	f, body := testBody(t)

	// Pin the same absolute bound a rel=1e-3 request would resolve to; the
	// fleet gate relies on abs= surviving verbatim across slab fan-outs.
	eb := 1e-3 * f.ValueRange()
	resp, err := http.Post(srv.URL+"/v1/compress?codec=sz3&abs="+
		strconv.FormatFloat(eb, 'g', 17, 64)+"&dims=24x24x8",
		"application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("abs compress: status %d, %v", resp.StatusCode, err)
	}

	resp, err = http.Post(srv.URL+"/v1/decompress?codec=sz3",
		"application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress status %d", resp.StatusCode)
	}
	g, err := field.ReadRaw("resp", 24, 24, 8, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Equalish(g, eb*1.01); err != nil {
		t.Fatal(err)
	}

	_, body = testBody(t)
	resp, err = http.Post(srv.URL+"/v1/compress?codec=sz3&abs=-1&dims=24x24x8",
		"application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("abs=-1: status %d, want 400", resp.StatusCode)
	}
}

func TestCompressFixedRatioEndpoint(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	_, body := testBody(t)
	resp, err := http.Post(srv.URL+"/v1/compress?codec=szx&ratio=3&dims=24x24x8",
		"application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	runs, err := strconv.Atoi(resp.Header.Get("X-Carol-Compressor-Runs"))
	if err != nil || runs < 1 {
		t.Fatalf("runs header %q", resp.Header.Get("X-Carol-Compressor-Runs"))
	}
	achieved, err := strconv.ParseFloat(resp.Header.Get("X-Carol-Achieved-Ratio"), 64)
	if err != nil || achieved < 1.5 || achieved > 6 {
		t.Fatalf("achieved %v for target 3", achieved)
	}
}

func TestEstimateEndpoint(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	_, body := testBody(t)
	resp, err := http.Post(srv.URL+"/v1/estimate?codec=sperr&rel=1e-2&dims=24x24x8",
		"application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["estimated_ratio"] <= 1 {
		t.Fatalf("estimate %v", out)
	}
}

func TestErrorResponses(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	_, body := testBody(t)
	cases := []struct {
		url  string
		want int
	}{
		{"/v1/compress?codec=nope&rel=1e-3&dims=24x24x8", http.StatusBadRequest},
		{"/v1/compress?codec=szx&dims=24x24x8", http.StatusBadRequest},        // no rel/ratio
		{"/v1/compress?codec=szx&rel=-1&dims=24x24x8", http.StatusBadRequest}, // bad rel
		{"/v1/compress?codec=szx&rel=1e-3&dims=0x2", http.StatusBadRequest},   // bad dims
		{"/v1/compress?codec=szx&rel=1e-3&dims=24xx8", http.StatusBadRequest}, // malformed dims
		{"/v1/compress?codec=szx&rel=1e-3&dims=1x2x3x4", http.StatusBadRequest},
		// Oversized fields are a size problem, not a syntax problem: 413.
		{"/v1/estimate?codec=szx&rel=1e-3&dims=9999999x9999999x9999999", http.StatusRequestEntityTooLarge},
		{"/v1/compress?codec=szx&rel=1e-3&dims=999999x999999x1", http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+c.url, "application/octet-stream", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.url, resp.StatusCode, c.want)
		}
	}
	// GET on a POST endpoint.
	resp, err := http.Get(srv.URL + "/v1/compress")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET compress: status %d", resp.StatusCode)
	}
	// Garbage stream to decompress.
	resp, err = http.Post(srv.URL+"/v1/decompress?codec=szx",
		"application/octet-stream", bytes.NewReader([]byte("garbage")))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("garbage decompress: status %d", resp.StatusCode)
	}
}

// TestCompressQueryTable is carolserve's leg of the differential table in
// internal/httpkit/kittest: every row must get the status ParseCompress's
// verdict maps to — in particular non-finite rel=/abs=/ratio=/target= are
// the client's 400, not a 500 the gate would retry on every replica.
func TestCompressQueryTable(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	f, err := dataset.Generate("miranda", "density", dataset.Options{Nx: 16, Ny: 8, Nz: 8})
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := f.WriteRaw(&body); err != nil {
		t.Fatal(err)
	}
	for _, row := range kittest.CompressQueries {
		resp, err := http.Post(srv.URL+"/v1/compress?"+row.Query, "application/octet-stream", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != row.Status {
			t.Errorf("%s: status %d (%.80s), want %d", row.Query, resp.StatusCode, msg, row.Status)
		}
	}
}

// TestNonFiniteFieldIs400: finite parameters over a field with a NaN or
// infinite sample — every bound source, every ratio= codec, the streamed
// container, mode=auto and the estimate — are the client's 400, not a 500
// the gate would retry on every replica.
func TestNonFiniteFieldIs400(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		f := field.New("bad", 8, 1, 1)
		f.Data[1], f.Data[3] = 2, float32(bad)
		var body bytes.Buffer
		if err := f.WriteRaw(&body); err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{
			"compress?codec=szx&rel=1e-3", "compress?codec=szx&rel=1e300", "compress?codec=sz3&abs=0.1",
			"compress?codec=szx&ratio=4", "compress?codec=zfp&ratio=4", "compress?codec=sz3&ratio=4",
			"compress?codec=szx&rel=1e-3&stream=1", "compress?mode=auto&rel=1e-3", "estimate?codec=szx&rel=1e-3",
		} {
			resp, err := http.Post(srv.URL+"/v1/"+q+"&dims=8", "application/octet-stream", bytes.NewReader(body.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%g sample, %s: status %d (%.80s), want 400", bad, q, resp.StatusCode, msg)
			}
		}
	}
}
