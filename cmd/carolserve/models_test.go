package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"carol/internal/features"
	"carol/internal/field"
	"carol/internal/model"
	"carol/internal/registry"
	"carol/internal/rf"
	"carol/internal/safedec"
	"carol/internal/trainset"
	"carol/internal/xrand"
)

// publishTestModel trains a tiny servable artifact and publishes it as
// the next version of "szx" in dir's registry.
func publishTestModel(t testing.TB, dir string, seed uint64) registry.Version {
	t.Helper()
	rng := xrand.New(seed)
	const rows = 120
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range X {
		row := make([]float64, trainset.InputDim)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = -3 + row[0] - 0.3*row[5]
	}
	cfg := rf.DefaultConfig()
	cfg.NEstimators = 4
	cfg.MaxDepth = 5
	cfg.Seed = seed
	forest, err := rf.Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := &model.Artifact{Codec: "szx", Schema: model.CanonicalSchema(), Regressor: forest}
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

// modelServer builds a server bound to dir's registry with models loaded.
func modelServer(t testing.TB, dir string) *server {
	t.Helper()
	cfg := defaultConfig()
	cfg.modelDir = dir
	s := newServerWith(cfg)
	if err := s.models.Reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}
	return s
}

// probeField returns a deterministic 8x8x4 field and its raw body bytes.
func probeField(t testing.TB) (*field.Field, []byte) {
	t.Helper()
	rng := xrand.New(99)
	var buf bytes.Buffer
	vals := make([]float32, 8*8*4)
	for i := range vals {
		vals[i] = float32(rng.Float64()*10 - 5)
	}
	if err := binary.Write(&buf, binary.LittleEndian, vals); err != nil {
		t.Fatal(err)
	}
	f, err := field.ReadRaw("probe", 8, 8, 4, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return f, buf.Bytes()
}

type predictResponse struct {
	Model       string    `json:"model"`
	Version     int       `json:"version"`
	Codec       string    `json:"codec"`
	Ratios      []float64 `json:"ratios"`
	ErrorBounds []float64 `json:"error_bounds"`
}

func TestModelsAndPredict(t *testing.T) {
	dir := t.TempDir()
	v := publishTestModel(t, dir, 1)
	s := modelServer(t, dir)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []modelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Model != "szx" || infos[0].Version != 1 ||
		infos[0].SHA256 != v.SHA256 || infos[0].Trees != 4 || infos[0].Nodes < 4 {
		t.Fatalf("models = %+v", infos)
	}

	f, body := probeField(t)
	resp, err = http.Post(ts.URL+"/v1/predict?ratio=10,100&dims=8x8x4",
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Model != "szx" || pr.Version != 1 || pr.Codec != "szx" || len(pr.ErrorBounds) != 2 {
		t.Fatalf("predict = %+v", pr)
	}

	// Served predictions are bit-identical to predicting from the loaded
	// artifact directly — HTTP and JSON add nothing.
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	art, err := reg.Load(v, safedec.Default())
	if err != nil {
		t.Fatal(err)
	}
	want, err := art.PredictErrorBounds(f, []float64{10, 100}, features.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(pr.ErrorBounds[i]) != math.Float64bits(want[i]) {
			t.Fatalf("bound %d: served %x, direct %x", i,
				math.Float64bits(pr.ErrorBounds[i]), math.Float64bits(want[i]))
		}
	}
}

func TestPredictErrors(t *testing.T) {
	dir := t.TempDir()
	publishTestModel(t, dir, 1)
	s := modelServer(t, dir)
	ts := httptest.NewServer(s)
	defer ts.Close()
	_, body := probeField(t)

	post := func(path string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/predict?model=ghost&ratio=10&dims=8x8x4"); code != http.StatusNotFound {
		t.Fatalf("unknown model = %d", code)
	}
	// Infinities parse as floats but have no JSON form: they used to
	// answer 200 with an empty body.
	for _, ratio := range []string{"-3", "Inf", "%2BInf", "infinity", "10,Inf"} {
		if code := post("/v1/predict?ratio=" + ratio + "&dims=8x8x4"); code != http.StatusBadRequest {
			t.Fatalf("ratio=%s: %d, want 400", ratio, code)
		}
	}
	if code := post("/v1/predict?ratio=10&dims=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad dims = %d", code)
	}
	if code := post("/v1/predict?dims=8x8x4"); code != http.StatusBadRequest {
		t.Fatalf("missing ratio = %d", code)
	}

	// Without -model-dir the endpoints answer 404, not 500.
	bare := httptest.NewServer(newServer())
	defer bare.Close()
	resp, err := http.Post(bare.URL+"/v1/predict?ratio=10&dims=8x8x4",
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no-model-dir predict = %d", resp.StatusCode)
	}
}

func TestReadyz(t *testing.T) {
	get := func(ts *httptest.Server) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	// No model dir: nothing to wait for, ready immediately.
	bare := httptest.NewServer(newServer())
	defer bare.Close()
	if code := get(bare); code != http.StatusOK {
		t.Fatalf("bare readyz = %d", code)
	}
	// Model dir configured but empty: alive yet not ready.
	dir := t.TempDir()
	cfg := defaultConfig()
	cfg.modelDir = dir
	s := newServerWith(cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()
	if code := get(ts); code != http.StatusServiceUnavailable {
		t.Fatalf("empty-registry readyz = %d", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while not ready = %d", resp.StatusCode)
	}
	// A publish plus reload flips readiness.
	publishTestModel(t, dir, 1)
	if err := s.models.Reload(); err != nil {
		t.Fatal(err)
	}
	if code := get(ts); code != http.StatusOK {
		t.Fatalf("readyz after load = %d", code)
	}
}

// TestHotSwapUnderLoad hammers /v1/predict while versions are published
// and reloaded concurrently — under -race this is the proof that the
// atomic-pointer swap lets in-flight requests finish on their model while
// new requests pick up the new one.
func TestHotSwapUnderLoad(t *testing.T) {
	dir := t.TempDir()
	publishTestModel(t, dir, 1)
	s := modelServer(t, dir)
	_, body := probeField(t)

	const clients = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodPost,
					"/v1/predict?ratio=10,50&dims=8x8x4", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("predict status %d: %s", rec.Code, rec.Body.String())
					return
				}
				var pr predictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
					errs <- err
					return
				}
				if pr.Version < 1 || pr.Version > 5 {
					errs <- fmt.Errorf("impossible version %d", pr.Version)
					return
				}
			}
		}()
	}
	for seed := uint64(2); seed <= 5; seed++ {
		publishTestModel(t, dir, seed)
		if err := s.models.Reload(); err != nil {
			t.Fatalf("reload: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.models.set()["szx"].version.Number; got != 5 {
		t.Fatalf("final version = %d, want 5", got)
	}
}

// TestReloadKeepsOldModelOnBadPublish corrupts the newest on-disk version
// and asserts a reload keeps serving the previous healthy generation.
func TestReloadKeepsOldModelOnBadPublish(t *testing.T) {
	dir := t.TempDir()
	publishTestModel(t, dir, 1)
	s := modelServer(t, dir)
	v2 := publishTestModel(t, dir, 2)
	data, err := os.ReadFile(v2.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(v2.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.models.Reload(); err == nil {
		t.Fatal("reload of corrupted version reported success")
	}
	lm := s.models.set()["szx"]
	if lm == nil || lm.version.Number != 1 {
		t.Fatalf("serving %+v, want retained v1", lm)
	}
	if !s.models.Ready() {
		t.Fatal("store lost readiness on failed reload")
	}
}

// TestSIGHUPReload delivers a real SIGHUP to the test process and waits
// for the store to swap to the newly published version.
func TestSIGHUPReload(t *testing.T) {
	dir := t.TempDir()
	publishTestModel(t, dir, 1)
	s := modelServer(t, dir)
	stop := s.models.watchHUP()
	defer stop()

	publishTestModel(t, dir, 2)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if lm := s.models.set()["szx"]; lm != nil && lm.version.Number == 2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("model not reloaded after SIGHUP; serving %+v", s.models.set()["szx"])
}

func TestRegistryFingerprint(t *testing.T) {
	dir := t.TempDir()
	publishTestModel(t, dir, 1)
	s := modelServer(t, dir)

	fp1, err := s.models.fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := s.models.fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint unstable without a publish: %q vs %q", fp1, fp2)
	}
	publishTestModel(t, dir, 2)
	fp3, err := s.models.fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Fatalf("fingerprint unchanged after publish: %q", fp3)
	}
}

func TestRegistryWatchConverges(t *testing.T) {
	dir := t.TempDir()
	publishTestModel(t, dir, 1)
	s := modelServer(t, dir)
	if lm := s.models.set()["szx"]; lm == nil || lm.version.Number != 1 {
		t.Fatalf("warm load did not serve v1")
	}

	stop := s.models.watchRegistry(20 * time.Millisecond)
	defer stop()

	// Publish without any signal: the poll loop must notice and hot-swap.
	publishTestModel(t, dir, 2)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if lm := s.models.set()["szx"]; lm != nil && lm.version.Number == 2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("registry watch never converged to v2; serving %+v", s.models.set()["szx"])
}

// TestBodyLengthMustMatchDims: a field body longer or shorter than dims=
// says is a 400 on every endpoint that takes one — it used to be served
// with its tail dropped — whether the length was declared or the body came
// chunked; the exact body is still a 200.
func TestBodyLengthMustMatchDims(t *testing.T) {
	dir := t.TempDir()
	publishTestModel(t, dir, 1)
	ts := httptest.NewServer(modelServer(t, dir))
	defer ts.Close()
	_, exact := probeField(t)
	for _, path := range []string{
		"/v1/compress?codec=szx&abs=0.1&dims=8x8x4",
		"/v1/compress?codec=szx&rel=1e-3&stream=1&dims=8x8x4",
		"/v1/compress?codec=szx&ratio=4&dims=8x8x4",
		"/v1/compress?mode=auto&rel=1e-3&dims=8x8x4",
		"/v1/estimate?codec=szx&rel=1e-3&dims=8x8x4",
		"/v1/predict?ratio=10&dims=8x8x4",
	} {
		for _, c := range []struct {
			body []byte
			want int
		}{
			{exact, http.StatusOK},
			{append(append([]byte(nil), exact...), exact...), http.StatusBadRequest},
			{append(append([]byte(nil), exact...), 0, 0, 0, 0), http.StatusBadRequest},
			{exact[:len(exact)-4], http.StatusBadRequest},
			{nil, http.StatusBadRequest},
		} {
			for _, chunked := range []bool{false, true} {
				var rd io.Reader = bytes.NewReader(c.body)
				if chunked {
					rd = io.MultiReader(rd) // no length to declare
				}
				resp, err := http.Post(ts.URL+path, "application/octet-stream", rd)
				if err != nil {
					t.Fatal(err)
				}
				msg, _ := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != c.want {
					t.Errorf("%s, %d-byte body (chunked=%v): status %d (%.80s), want %d",
						path, len(c.body), chunked, resp.StatusCode, msg, c.want)
				}
			}
		}
	}
}
