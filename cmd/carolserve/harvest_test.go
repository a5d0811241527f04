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

	"carol/internal/boost"
	"carol/internal/model"
	"carol/internal/registry"
	"carol/internal/trainset"
	"carol/internal/xrand"
)

// TestHarvestJournalsOutcomes drives every compress path variant through
// a harvesting server and checks each outcome lands in the right
// per-codec journal with the achieved ratio the response reported.
func TestHarvestJournalsOutcomes(t *testing.T) {
	dir := t.TempDir()
	cfg := defaultConfig()
	cfg.harvestDir = dir
	s := newServerWith(cfg)
	srv := httptest.NewServer(s)
	defer srv.Close()
	_, body := testBody(t)

	post := func(url string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+url, "application/octet-stream", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
		// A streamed answer is journaled after its last byte: read to the
		// end so the journal's order is the requests' order.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	relResp := post("/v1/compress?codec=szx&rel=1e-3&dims=24x24x8")
	post("/v1/compress?codec=szx&rel=1e-3&stream=1&dims=24x24x8")
	ratioResp := post("/v1/compress?codec=szx&ratio=3&dims=24x24x8")
	post("/v1/compress?codec=sz3&rel=1e-2&dims=24x24x8")

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := trainset.ListJournals(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "sz3" || names[1] != "szx" {
		t.Fatalf("journals %v", names)
	}
	recs, err := trainset.ReadJournal(trainset.JournalPath(dir, "szx"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// One record per rel= request and one per compressor run of the search.
	runs, err := strconv.Atoi(ratioResp.Header.Get("X-Carol-Compressor-Runs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2+runs {
		t.Fatalf("szx journal has %d records, want 2 + %d search runs", len(recs), runs)
	}
	achieved, err := strconv.ParseFloat(relResp.Header.Get("X-Carol-Achieved-Ratio"), 64)
	if err != nil {
		t.Fatal(err)
	}
	first := recs[0]
	// The header rounds to 6 significant digits; the journal keeps the
	// full value.
	if math.Abs(first.Ratio-achieved) > 1e-5*achieved {
		t.Fatalf("journal ratio %g, response header %g", first.Ratio, achieved)
	}
	if !(first.RelEB > 0 && first.RelEB <= 1) {
		t.Fatalf("relEB %g out of range", first.RelEB)
	}
	if !(first.Features.Range > 0) {
		t.Fatalf("features not extracted: %+v", first.Features)
	}
	// The rel= and stream=1 runs compress the same field at the same
	// bound, so their journaled relEB must agree exactly.
	if math.Float64bits(recs[0].RelEB) != math.Float64bits(recs[1].RelEB) {
		t.Fatalf("sync relEB %g != streaming relEB %g", recs[0].RelEB, recs[1].RelEB)
	}

	sz3, err := trainset.ReadJournal(trainset.JournalPath(dir, "sz3"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sz3) != 1 {
		t.Fatalf("sz3 journal has %d records, want 1", len(sz3))
	}
}

// TestHarvestDisabledWritesNothing: without -harvest-dir the compress
// path must not touch the filesystem.
func TestHarvestDisabledWritesNothing(t *testing.T) {
	s := newServerWith(defaultConfig())
	srv := httptest.NewServer(s)
	defer srv.Close()
	_, body := testBody(t)
	resp, err := http.Post(srv.URL+"/v1/compress?codec=szx&rel=1e-3&dims=24x24x8",
		"application/octet-stream", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// publishBoostModel publishes a boost-backend artifact as the next "szx"
// version — the shape the retraining pipeline produces when boost wins.
func publishBoostModel(t testing.TB, dir string) registry.Version {
	t.Helper()
	rng := xrand.New(12)
	const rows = 80
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range X {
		row := make([]float64, trainset.InputDim)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = -2 - row[1]
	}
	m, err := boost.Train(X, y, boost.Config{Rounds: 7, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := &model.Artifact{Codec: "szx", Backend: model.BackendBoost, Schema: model.CanonicalSchema(), Regressor: m}
	buf, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, err := reg.Publish("szx", buf)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestModelsBackendHotSwap loads an rf model, hot-swaps to a boost-backend
// version (the retraining pipeline's publish shape), and checks both
// /v1/models metadata and /v1/predict keep working across the swap.
func TestModelsBackendHotSwap(t *testing.T) {
	dir := t.TempDir()
	publishTestModel(t, dir, 1)
	s := modelServer(t, dir)
	srv := httptest.NewServer(s)
	defer srv.Close()

	getInfos := func() []modelInfo {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/models")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var infos []modelInfo
		if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
			t.Fatal(err)
		}
		return infos
	}
	infos := getInfos()
	if len(infos) != 1 || infos[0].Backend != "rf" || infos[0].Version != 1 {
		t.Fatalf("infos %+v", infos)
	}
	if infos[0].Trees == 0 {
		t.Fatalf("rf stats missing: %+v", infos[0])
	}

	v := publishBoostModel(t, dir)
	if err := s.models.Reload(); err != nil {
		t.Fatal(err)
	}
	infos = getInfos()
	if len(infos) != 1 || infos[0].Backend != "boost" || infos[0].Version != v.Number {
		t.Fatalf("after swap: %+v", infos)
	}
	// For boost, Trees counts the boosting stages.
	if infos[0].Trees != 7 || infos[0].Nodes == 0 || infos[0].MaxDepth == 0 {
		t.Fatalf("boost stats missing: %+v", infos[0])
	}

	_, body := testBody(t)
	resp, err := http.Post(srv.URL+"/v1/predict?model=szx&ratio=10,50&dims=24x24x8",
		"application/octet-stream", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	var pred struct {
		Version     int       `json:"version"`
		ErrorBounds []float64 `json:"error_bounds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	if pred.Version != v.Number || len(pred.ErrorBounds) != 2 {
		t.Fatalf("predict response %+v", pred)
	}
	for _, eb := range pred.ErrorBounds {
		if !(eb > 0 && eb <= 1) {
			t.Fatalf("error bound %g out of range", eb)
		}
	}
}
