package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"carol/internal/compressor"
)

// hostileHeader builds a syntactically valid szx stream header claiming the
// given dimensions, with no payload behind it.
func hostileHeader(nx, ny, nz int) []byte {
	return compressor.AppendHeader(nil, compressor.Header{
		Magic: compressor.MagicSZx, Nx: nx, Ny: ny, Nz: nz, EB: 1e-3,
	})
}

func TestDecompressHostileStreamStatusCodes(t *testing.T) {
	srv := httptest.NewServer(newServer())
	defer srv.Close()

	// rejects reads the szx decode-reject counters off /metrics. They are
	// process-wide, so each case asserts on what its own request added.
	rejects := func(t *testing.T) map[string]int {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int)
		for _, line := range strings.Split(string(text), "\n") {
			series, value, _ := strings.Cut(line, " ")
			if reason, ok := strings.CutPrefix(series, `codec_decode_reject_total{codec="szx",reason="`); ok {
				n, err := strconv.Atoi(value)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				out[strings.TrimSuffix(reason, `"}`)] = n
			}
		}
		return out
	}

	for _, tc := range []struct {
		name   string
		body   []byte
		status int
		reason string
	}{
		// Dims the server's decode limits refuse: over the configured
		// element ceiling but a plausible uint32 product. This is a policy
		// rejection, not stream damage, so the client sees 413.
		{"over-limit dims", hostileHeader(1<<15, 1<<15, 1<<2), http.StatusRequestEntityTooLarge, "limit"},
		{"garbage", []byte("not a compressed stream at all"), http.StatusUnprocessableEntity, "corrupt"},
		{"truncated", hostileHeader(8, 8, 8), http.StatusUnprocessableEntity, "truncated"},
	} {
		before := rejects(t)
		resp, err := http.Post(srv.URL+"/v1/decompress?codec=szx", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d, body %q", tc.name, resp.StatusCode, tc.status, b)
		}
		// The instrumented codec must have counted this rejection, by class,
		// and no other.
		after := rejects(t)
		for _, reason := range []string{"limit", "truncated", "corrupt"} {
			want := before[reason]
			if reason == tc.reason {
				want++
			}
			if after[reason] != want {
				t.Errorf("%s: codec_decode_reject_total{reason=%q} went %d -> %d, want %d", tc.name, reason, before[reason], after[reason], want)
			}
		}
	}
}
