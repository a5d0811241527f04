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
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"carol/internal/chunked"
	"carol/internal/httpkit"
	"carol/internal/httpkit/kittest"
	"carol/internal/jobs"
	"carol/internal/xrand"
)

// fakeStreamMagic prefixes the fake shard's "compressed" streams: the
// gate treats shard output as opaque bytes, so a losslessly reversible
// echo codec exercises every routing path while letting round-trip tests
// compare exact bytes.
const fakeStreamMagic = "FKZ1"

// fakeShard is an httptest-backed carolserve stand-in implementing the
// endpoints the gate talks to: /healthz, /v1/compress (echo codec),
// /v1/decompress, /v1/models.
type fakeShard struct {
	srv *httptest.Server
	// requests counts everything but health probes, on any path.
	requests     atomic.Int64
	compresses   atomic.Int64
	decompresses atomic.Int64
	// failCompress makes /v1/compress answer 503 (a retryable verdict the
	// gate should route around without marking the shard down).
	failCompress atomic.Bool
	// modelVersion is served on /v1/models when positive; 0 answers 404
	// like a carolserve without -model-dir.
	modelVersion atomic.Int64
	// modelBackend is the backend tag /v1/models reports ("rf" when unset).
	modelBackend atomic.Value
	// blockCompress, when non-nil, parks /v1/compress until closed — used
	// to hold jobs in flight for admission-control tests.
	blockCompress chan struct{}
	// lastCompressQuery records the most recent /v1/compress query string,
	// so fan-out tests can assert what the gate actually forwarded.
	lastCompressQuery atomic.Value
}

func newFakeShard(t *testing.T) *fakeShard {
	t.Helper()
	fs := &fakeShard{}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/compress", func(w http.ResponseWriter, r *http.Request) {
		if fs.failCompress.Load() {
			http.Error(w, "shard overloaded", http.StatusServiceUnavailable)
			return
		}
		if fs.blockCompress != nil {
			<-fs.blockCompress
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fs.compresses.Add(1)
		fs.lastCompressQuery.Store(r.URL.RawQuery)
		// A real carolserve resolves mode=auto itself and names its pick;
		// the fake always "chooses" szx so header relaying is observable.
		if r.URL.Query().Get("mode") == "auto" {
			w.Header().Set("X-Carol-Codec-Chosen", "szx")
		}
		w.Header().Set("X-Carol-Achieved-Ratio", "1")
		if _, err := w.Write(append([]byte(fakeStreamMagic), body...)); err != nil {
			t.Logf("fake shard write: %v", err)
		}
	})
	mux.HandleFunc("/v1/decompress", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if !bytes.HasPrefix(body, []byte(fakeStreamMagic)) {
			http.Error(w, "not a fake stream", http.StatusUnprocessableEntity)
			return
		}
		fs.decompresses.Add(1)
		if _, err := w.Write(body[len(fakeStreamMagic):]); err != nil {
			t.Logf("fake shard write: %v", err)
		}
	})
	mux.HandleFunc("/v1/models", func(w http.ResponseWriter, r *http.Request) {
		v := fs.modelVersion.Load()
		if v == 0 {
			http.Error(w, "no -model-dir configured", http.StatusNotFound)
			return
		}
		backend := "rf"
		if b, ok := fs.modelBackend.Load().(string); ok && b != "" {
			backend = b
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `[{"model":"sz3","version":%d,"backend":%q}]`, v, backend)
	})
	fs.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			fs.requests.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(fs.srv.Close)
	return fs
}

// newTestFleet boots n fake shards and a gate over them, runs one probe
// sweep (all healthy), and registers cleanup for the job queue.
func newTestFleet(t *testing.T, n int, tweak func(*gateConfig)) (*gate, []*fakeShard) {
	t.Helper()
	shards := make([]*fakeShard, n)
	urls := make([]string, n)
	for i := range shards {
		shards[i] = newFakeShard(t)
		urls[i] = shards[i].srv.URL
	}
	return newGateOver(t, urls, tweak), shards
}

// rawField builds n little-endian float32 samples with enough value
// spread that rel= bounds resolve to a positive abs bound.
func rawField(n int) []byte {
	b := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(float32(i%97)+0.5))
	}
	return b
}

func doGate(t *testing.T, g *gate, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	g.ServeHTTP(w, req)
	return w
}

func shardHits(shards []*fakeShard) []int64 {
	out := make([]int64, len(shards))
	for i, s := range shards {
		out[i] = s.compresses.Load()
	}
	return out
}

func TestGateWholeRoutingDeterministic(t *testing.T) {
	g, shards := newTestFleet(t, 3, nil)
	raw := rawField(4)
	target := "/v1/compress?codec=fake&rel=1e-3&dims=4x1x1"

	w := doGate(t, g, http.MethodPost, target, raw)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	want := append([]byte(fakeStreamMagic), raw...)
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("routed body mismatch: got %d bytes, want %d", w.Body.Len(), len(want))
	}
	first := shardHits(shards)
	served := -1
	for i, n := range first {
		if n > 0 {
			if served >= 0 {
				t.Fatalf("whole-field request hit multiple shards: %v", first)
			}
			served = i
		}
	}
	if served < 0 {
		t.Fatalf("no shard served the request")
	}
	// Same routing key must land on the same shard every time.
	for i := 0; i < 5; i++ {
		if w := doGate(t, g, http.MethodPost, target, raw); w.Code != http.StatusOK {
			t.Fatalf("repeat %d: status %d", i, w.Code)
		}
	}
	after := shardHits(shards)
	for i := range shards {
		wantN := int64(0)
		if i == served {
			wantN = 6
		}
		if after[i] != wantN {
			t.Fatalf("shard %d served %d requests, want %d (placement not sticky)", i, after[i], wantN)
		}
	}
}

func TestGateChunkedFanOutRoundTrip(t *testing.T) {
	g, shards := newTestFleet(t, 3, func(cfg *gateConfig) {
		cfg.chunkThresholdKiB = 1
	})
	const nx, ny, nz = 64, 4, 4
	raw := rawField(nx * ny * nz) // 4 KiB, above the 1 KiB threshold

	w := doGate(t, g, http.MethodPost,
		fmt.Sprintf("/v1/compress?codec=fake&rel=1e-3&dims=%dx%dx%d", nx, ny, nz), raw)
	if w.Code != http.StatusOK {
		t.Fatalf("compress status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Carol-Fanout-Chunks"); got != "3" {
		t.Fatalf("X-Carol-Fanout-Chunks = %q, want 3", got)
	}
	container := w.Body.Bytes()
	gnx, gny, gnz, chunks, err := chunked.Parse(container, g.cfg.proxyLimits)
	if err != nil {
		t.Fatalf("gate output is not a CCH1 container: %v", err)
	}
	if gnx != nx || gny != ny || gnz != nz {
		t.Fatalf("container dims %dx%dx%d, want %dx%dx%d", gnx, gny, gnz, nx, ny, nz)
	}
	if len(chunks) != 3 {
		t.Fatalf("container has %d chunks, want 3", len(chunks))
	}
	// Slab placement rotates the replica walk, so with 3 healthy shards
	// and 3 slabs every shard compresses exactly one.
	for i, s := range shards {
		if got := s.compresses.Load(); got != 1 {
			t.Fatalf("shard %d compressed %d slabs, want 1 (hits %v)", i, got, shardHits(shards))
		}
	}

	// The container must decompress back to the original field via the
	// gate's chunk fan-out.
	w = doGate(t, g, http.MethodPost, "/v1/decompress?codec=fake", container)
	if w.Code != http.StatusOK {
		t.Fatalf("decompress status %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), raw) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", w.Body.Len(), len(raw))
	}
	if got := w.Header().Get("X-Carol-Dims"); got != fmt.Sprintf("%dx%dx%d", nx, ny, nz) {
		t.Fatalf("X-Carol-Dims = %q", got)
	}
}

func TestGateRetriesNextReplicaOn503(t *testing.T) {
	g, shards := newTestFleet(t, 3, nil)
	raw := rawField(4)
	target := "/v1/compress?codec=fake&rel=1e-3&dims=4x1x1&key=pinned"

	// Find the pinned key's owner and make it refuse.
	owner := g.ring.Owner("pinned")
	for _, s := range shards {
		if s.srv.URL == owner {
			s.failCompress.Store(true)
		}
	}
	before := g.retried.Value()
	w := doGate(t, g, http.MethodPost, target, raw)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via replica: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), append([]byte(fakeStreamMagic), raw...)) {
		t.Fatalf("replica served wrong body")
	}
	if g.retried.Value() <= before {
		t.Fatalf("gate_retried_total did not increase")
	}
	// A 503 is load, not death: the shard must still be routable.
	if !g.shards[owner].healthy.Load() {
		t.Fatalf("503 verdict marked shard down; only transport failures should")
	}
}

func TestGateShardDeathMarksDownAndRoutesAround(t *testing.T) {
	g, shards := newTestFleet(t, 3, nil)
	raw := rawField(4)
	owner := g.ring.Owner("pinned")
	for _, s := range shards {
		if s.srv.URL == owner {
			s.srv.Close() // kill the process, not just the endpoint
		}
	}
	w := doGate(t, g, http.MethodPost, "/v1/compress?codec=fake&rel=1e-3&dims=4x1x1&key=pinned", raw)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via surviving replica: %s", w.Code, w.Body.String())
	}
	if g.shards[owner].healthy.Load() {
		t.Fatalf("dead shard still marked healthy after transport failure")
	}
	if got := len(g.healthyShards()); got != 2 {
		t.Fatalf("%d healthy shards after kill, want 2", got)
	}
}

func TestGateEmptyFleet503(t *testing.T) {
	g, shards := newTestFleet(t, 2, nil)
	for _, s := range shards {
		s.srv.Close()
	}
	for _, name := range g.ring.Shards() {
		g.shards[name].healthy.Store(false)
	}
	w := doGate(t, g, http.MethodPost, "/v1/compress?codec=fake&rel=1e-3&dims=4x1x1", rawField(4))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatalf("503 without Retry-After")
	}
}

func TestGateReadyz(t *testing.T) {
	g, _ := newTestFleet(t, 2, nil)
	if w := doGate(t, g, http.MethodGet, "/readyz", nil); w.Code != http.StatusOK {
		t.Fatalf("readyz with healthy shards: %d", w.Code)
	}
	for _, name := range g.ring.Shards() {
		g.shards[name].healthy.Store(false)
	}
	if w := doGate(t, g, http.MethodGet, "/readyz", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with empty fleet: %d, want 503", w.Code)
	}
}

func pollJob(t *testing.T, g *gate, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		w := doGate(t, g, http.MethodGet, "/v1/jobs/"+id, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("job status: %d: %s", w.Code, w.Body.String())
		}
		var st jobs.Status
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatalf("job status decode: %v", err)
		}
		if st.State == jobs.StateDone || st.State == jobs.StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGateJobLifecycle(t *testing.T) {
	g, _ := newTestFleet(t, 3, nil)
	raw := rawField(4)
	w := doGate(t, g, http.MethodPost, "/v1/jobs/compress?codec=fake&rel=1e-3&dims=4x1x1", raw)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", w.Code, w.Body.String())
	}
	var acc jobAccepted
	if err := json.Unmarshal(w.Body.Bytes(), &acc); err != nil {
		t.Fatalf("accept decode: %v", err)
	}
	if acc.ID == "" || !strings.HasSuffix(acc.ResultURL, "/result") {
		t.Fatalf("bad accept payload: %+v", acc)
	}

	st := pollJob(t, g, acc.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	w = doGate(t, g, http.MethodGet, acc.ResultURL, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("result status %d: %s", w.Code, w.Body.String())
	}
	// The async result must match what the synchronous path returns.
	if !bytes.Equal(w.Body.Bytes(), append([]byte(fakeStreamMagic), raw...)) {
		t.Fatalf("job result differs from synchronous compress output")
	}
	if got := w.Header().Get("X-Carol-Job-Id"); got != acc.ID {
		t.Fatalf("X-Carol-Job-Id = %q, want %q", got, acc.ID)
	}
}

func TestGateJobUnknownID(t *testing.T) {
	g, _ := newTestFleet(t, 1, nil)
	if w := doGate(t, g, http.MethodGet, "/v1/jobs/nope", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", w.Code)
	}
}

func TestGateJobTenantQuota(t *testing.T) {
	release := make(chan struct{})
	g, shards := newTestFleet(t, 1, func(cfg *gateConfig) {
		cfg.tenantQuota = 1
		cfg.jobQueue = 16
	})
	shards[0].blockCompress = release
	defer close(release)

	raw := rawField(4)
	target := "/v1/jobs/compress?codec=fake&rel=1e-3&dims=4x1x1"
	submit := func(tenant string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(raw))
		req.Header.Set("X-Carol-Tenant", tenant)
		w := httptest.NewRecorder()
		g.ServeHTTP(w, req)
		return w
	}
	if w := submit("alice"); w.Code != http.StatusAccepted {
		t.Fatalf("first job: %d: %s", w.Code, w.Body.String())
	}
	w := submit("alice")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota job: %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	// Another tenant is not punished for alice's backlog.
	if w := submit("bob"); w.Code != http.StatusAccepted {
		t.Fatalf("other tenant: %d: %s", w.Code, w.Body.String())
	}
}

func TestGateJobBadTenant(t *testing.T) {
	g, _ := newTestFleet(t, 1, nil)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs/compress?codec=fake&rel=1e-3&dims=4x1x1",
		bytes.NewReader(rawField(4)))
	req.Header.Set("X-Carol-Tenant", "no spaces allowed")
	w := httptest.NewRecorder()
	g.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad tenant: %d, want 400", w.Code)
	}
}

func TestGateFleetConvergence(t *testing.T) {
	g, shards := newTestFleet(t, 3, nil)
	for _, s := range shards {
		s.modelVersion.Store(2)
	}
	fetch := func() fleetStatus {
		w := doGate(t, g, http.MethodGet, "/v1/fleet", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("fleet status %d", w.Code)
		}
		var st fleetStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatalf("fleet decode: %v", err)
		}
		return st
	}
	st := fetch()
	if st.Healthy != 3 || st.RingShards != 3 {
		t.Fatalf("fleet: %d/%d healthy, want 3/3", st.Healthy, st.RingShards)
	}
	if !st.Converged {
		t.Fatalf("uniform fleet reported unconverged: %+v", st)
	}
	for _, fs := range st.Shards {
		if fs.ModelVersion["sz3"] != 2 {
			t.Fatalf("shard %s model version %d, want 2", fs.Shard, fs.ModelVersion["sz3"])
		}
		if fs.ModelBackend["sz3"] != "rf" {
			t.Fatalf("shard %s model backend %q, want rf", fs.Shard, fs.ModelBackend["sz3"])
		}
	}
	// One shard lags a publish: the fleet must report divergence.
	shards[1].modelVersion.Store(3)
	if st := fetch(); st.Converged {
		t.Fatalf("diverged fleet reported converged")
	}
	shards[1].modelVersion.Store(2)
	// Same version but a different serving backend (a publish that swapped
	// backends mid-rollout) is also divergence.
	shards[1].modelBackend.Store("boost")
	st = fetch()
	if st.Converged {
		t.Fatalf("backend-diverged fleet reported converged")
	}
	var boostShards int
	for _, fs := range st.Shards {
		if fs.ModelBackend["sz3"] == "boost" {
			boostShards++
		}
	}
	if boostShards != 1 {
		t.Fatalf("fleet backends: %d boost shards, want 1", boostShards)
	}
}

func TestGateProxiesModelsWhole(t *testing.T) {
	g, shards := newTestFleet(t, 2, nil)
	for _, s := range shards {
		s.modelVersion.Store(1)
	}
	w := doGate(t, g, http.MethodGet, "/v1/models", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("models via gate: %d", w.Code)
	}
	var infos []struct {
		Model   string `json:"model"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
		t.Fatalf("models decode: %v", err)
	}
	if len(infos) != 1 || infos[0].Model != "sz3" {
		t.Fatalf("models payload: %+v", infos)
	}
}

func TestShouldChunk(t *testing.T) {
	g, _ := newTestFleet(t, 3, func(cfg *gateConfig) { cfg.chunkThresholdKiB = 1 })
	cases := []struct {
		q       string
		size    int
		healthy int
		want    bool
	}{
		{"rel=1e-3", 2048, 3, true},
		{"abs=0.5", 2048, 3, true},
		{"rel=1e-3", 512, 3, false},           // under threshold
		{"rel=1e-3", 2048, 1, false},          // nothing to spread over
		{"ratio=100", 2048, 3, false},         // FRaZ needs the whole field
		{"rel=1e-3&stream=1", 2048, 3, false}, // CPL1 is the shard's own fan-out
	}
	for _, c := range cases {
		q, err := url.ParseQuery("codec=szx&dims=8x8x8&" + c.q)
		if err != nil {
			t.Fatalf("query %q: %v", c.q, err)
		}
		req, err := httpkit.ParseCompress(q)
		if err != nil {
			t.Fatalf("ParseCompress(%q): %v", c.q, err)
		}
		if got := g.shouldChunk(req, c.size, c.healthy); got != c.want {
			t.Errorf("shouldChunk(%q, %d, %d) = %v, want %v", c.q, c.size, c.healthy, got, c.want)
		}
	}
}

// TestEndpointLabelBounded: the gate's registered routes are the whole
// metric label set, job ids collapse to one label, and anything else is
// "other".
func TestEndpointLabelBounded(t *testing.T) {
	g, _ := newTestFleet(t, 1, nil)
	cases := map[string]string{
		"/v1/compress":        "/v1/compress",
		"/v1/fleet":           "/v1/fleet",
		"/v1/jobs/compress":   "/v1/jobs/compress",
		"/v1/jobs/abc123":     "/v1/jobs/{id}",
		"/v1/jobs/abc/result": "/v1/jobs/{id}",
		"/v1/whatever":        "other",
		"/secret":             "other",
	}
	for path, want := range cases {
		if got := g.Label(path); got != want {
			t.Errorf("Label(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestMetricLabelCardinality sends the gate's request table twice, every
// query value, codec and model name, job id and unknown path fresh and
// random, and requires the second pass to mint no /metrics series — the
// runtime form of TestEndpointLabelBounded, over every route at once.
func TestMetricLabelCardinality(t *testing.T) {
	g, _ := newTestFleet(t, 2, func(cfg *gateConfig) { cfg.chunkThresholdKiB = 1 })
	raw := rawField(kittest.Samples)
	rng := xrand.New(29)
	fresh := func() string { return fmt.Sprintf("x%x", rng.Uint64()) }
	num := func(lo float64) string { return strconv.FormatFloat(lo*(1+rng.Float64()), 'g', -1, 64) }
	dims := "&dims=" + kittest.Dims
	kittest.LabelsBounded(t, g, func() {
		for _, target := range []string{
			"POST /v1/compress?codec=" + fresh() + "&ratio=4" + dims,
			"POST /v1/compress?codec=szx&rel=" + num(1e-3) + "&key=" + fresh() + "&tenant=" + fresh() + dims,
			"POST /v1/compress?codec=szx&abs=" + num(0.1) + dims,
			"POST /v1/compress?codec=szx&rel=" + fresh() + dims,
			"POST /v1/compress?mode=" + fresh() + "&rel=1e-3" + dims,
			"POST /v1/compress?mode=auto&rel=" + num(1e-3) + dims,
			"POST /v1/compress?codec=szx&rel=1e-3&dims=" + fresh(),
			"POST /v1/decompress?codec=" + fresh(),
			"POST /v1/estimate?codec=" + fresh() + "&rel=" + num(1e-3) + dims,
			"POST /v1/predict?model=" + fresh() + "&ratio=" + num(10) + dims,
			"GET /v1/models?" + fresh() + "=" + fresh(),
			"GET /v1/codecs?key=" + fresh(),
			"POST /v1/jobs/compress?codec=szx&rel=" + fresh() + "&tenant=" + fresh() + dims,
			"GET /v1/jobs/" + fresh(),
			"GET /v1/jobs/" + fresh() + "/result",
			"GET /v1/fleet?" + fresh() + "=1",
			"GET /v1/" + fresh(),
			"POST /" + fresh(),
			"GET /metrics",
		} {
			method, path, _ := strings.Cut(target, " ")
			doGate(t, g, method, path, raw)
		}
	})
}

func TestSplitShards(t *testing.T) {
	got := splitShards(" http://a:1/, ,http://b:2 ,")
	want := []string{"http://a:1", "http://b:2"}
	if len(got) != len(want) {
		t.Fatalf("splitShards: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitShards[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestCompressQueryTable is the gate's two legs of the differential table
// in internal/httpkit/kittest: whole routing and slab fan-out must answer
// every row with the status a shard would — a bad query is refused at the
// door (no shard sees it, so none can turn it into a retry storm), a good
// one is served — on the synchronous and the async endpoint alike.
func TestCompressQueryTable(t *testing.T) {
	compressQueryTableLeg(t, "whole", 1024)
	compressQueryTableLeg(t, "fanout", 1)
}

func compressQueryTableLeg(t *testing.T, leg string, thresholdKiB int) {
	raw := rawField(kittest.Samples)
	g, shards := newTestFleet(t, 3, func(cfg *gateConfig) {
		cfg.chunkThresholdKiB = thresholdKiB
		cfg.tenantQuota = len(kittest.CompressQueries) // every accepted job may still be queued
	})
	for _, row := range kittest.CompressQueries {
		before := shardHits(shards)
		w := doGate(t, g, http.MethodPost, "/v1/compress?"+row.Query, raw)
		if w.Code != row.Status {
			t.Errorf("%s %s: status %d (%s), want %d", leg, row.Query, w.Code, strings.TrimSpace(w.Body.String()), row.Status)
		}
		if row.Status != http.StatusOK && fmt.Sprint(shardHits(shards)) != fmt.Sprint(before) {
			t.Errorf("%s %s: refused query still reached a shard", leg, row.Query)
		}
	}
	// Jobs go last: accepted ones hit the shards in the background.
	for _, row := range kittest.CompressQueries {
		wantJob := row.Status
		if wantJob == http.StatusOK {
			wantJob = http.StatusAccepted
		}
		if w := doGate(t, g, http.MethodPost, "/v1/jobs/compress?"+row.Query, raw); w.Code != wantJob {
			t.Errorf("%s job %s: status %d, want %d", leg, row.Query, w.Code, wantJob)
		}
	}
}
