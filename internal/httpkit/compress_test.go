package httpkit_test

import (
	"errors"
	"math"
	"net/http"
	"net/url"
	"testing"

	"carol/internal/field"
	"carol/internal/httpkit"
	"carol/internal/httpkit/kittest"
	"carol/internal/selector"
)

// TestParseCompressTable is ParseCompress's leg of the differential table:
// carolserve and carolgate run the same rows over HTTP and must answer the
// status this parse verdict maps to.
func TestParseCompressTable(t *testing.T) {
	for _, row := range kittest.CompressQueries {
		q, err := url.ParseQuery(row.Query)
		if err != nil {
			t.Fatalf("%q: %v", row.Query, err)
		}
		_, err = httpkit.ParseCompress(q)
		got := http.StatusOK
		switch {
		case errors.Is(err, httpkit.ErrTooLarge):
			got = http.StatusRequestEntityTooLarge
		case err != nil:
			got = http.StatusBadRequest
		}
		if got != row.Status {
			t.Errorf("%q: parse verdict %d (%v), want %d", row.Query, got, err, row.Status)
		}
	}
}

func mustParse(t *testing.T, query string) httpkit.Compress {
	t.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	c, err := httpkit.ParseCompress(q)
	if err != nil {
		t.Fatalf("ParseCompress(%q): %v", query, err)
	}
	return c
}

func TestParseCompressFields(t *testing.T) {
	c := mustParse(t, "codec=sz3&rel=1e-3&stream=1&workers=3&dims=8x4")
	if c.Auto || c.Codec != "sz3" || !c.Stream || c.Workers != 3 || c.Nx != 8 || c.Ny != 4 || c.Nz != 1 {
		t.Errorf("static stream request parsed as %+v", c)
	}
	c = mustParse(t, "mode=auto&abs=0.5&target=12&dims=8")
	if !c.Auto || c.Codec != "" || !(c.Target > 11 && c.Target < 13) || c.Stream {
		t.Errorf("auto request parsed as %+v", c)
	}
	// A ratio search answers a plain stream: stream= (and its workers=) are
	// not in play.
	c = mustParse(t, "codec=szx&ratio=10&stream=1&workers=junk&dims=8")
	if c.Stream || c.Workers != 0 || !(c.Ratio > 9) {
		t.Errorf("ratio request parsed as %+v", c)
	}
}

func TestBound(t *testing.T) {
	f := field.FromData("t", 4, 1, 1, []float32{0, 1, 2, 10})
	eb, err := mustParse(t, "codec=szx&rel=1e-2&dims=4").Bound(f.ValueRange)
	if err != nil || math.Abs(eb-0.1) > 1e-12 {
		t.Errorf("rel bound = %g, %v; want 0.1 (rel × range 10)", eb, err)
	}
	eb, err = mustParse(t, "codec=szx&rel=1e-2&abs=0.5&dims=4").Bound(f.ValueRange)
	if err != nil || math.Abs(eb-0.5) > 1e-12 {
		t.Errorf("abs bound = %g, %v; want 0.5 verbatim", eb, err)
	}
	// Finite parameters can still resolve to an unusable bound on the data:
	// that is the client's field, so an error, never a 500 downstream.
	inf := field.FromData("inf", 2, 1, 1, []float32{0, float32(math.Inf(1))})
	if eb, err := mustParse(t, "codec=szx&rel=1e-2&dims=2").Bound(inf.ValueRange); err == nil {
		t.Errorf("bound over an infinite value range = %g, want error", eb)
	}
	if eb, err := mustParse(t, "codec=szx&rel=1e308&dims=4").Bound(f.ValueRange); err == nil {
		t.Errorf("overflowing bound = %g, want error", eb)
	}
}

func TestResolveCodec(t *testing.T) {
	sel, err := selector.New(selector.Config{Seed: 1, Epsilon: -1})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float32, 16*8*8)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 17))
	}
	f := field.FromData("t", 16, 8, 8, data)

	name, dec, err := mustParse(t, "codec=zfp&rel=1e-3&dims=16x8x8").ResolveCodec(nil, sel, f, 1e-3)
	if err != nil || name != "zfp" || dec != nil {
		t.Errorf("static: %q, %v, %v; want zfp with no decision", name, dec, err)
	}
	name, dec, err = mustParse(t, "mode=auto&rel=1e-3&dims=16x8x8").ResolveCodec(nil, sel, f, 1e-3)
	if err != nil || dec == nil || name != dec.Codec || name == "" {
		t.Fatalf("auto: %q, %v, %v; want the selector's decision", name, dec, err)
	}
}
