package main

import (
	"net/http"
	"time"

	"carol/internal/httpkit"
	"carol/internal/obs"
	"carol/internal/safedec"
	"carol/internal/selector"
	"carol/internal/zpool"
)

// config carries the server hardening knobs, set from flags in main and
// from test code directly.
type config struct {
	// maxInflight bounds concurrently served /v1/ requests; excess requests
	// are refused with 503 + Retry-After instead of queueing without bound.
	maxInflight int
	// trackEstimatorError runs the SECRE surrogate alongside /v1/compress
	// rel= requests and records estimate-vs-actual ratio error gauges.
	trackEstimatorError bool

	// decodeLimits bounds what /v1/decompress will allocate from
	// stream-claimed sizes; limit rejections map to 413, corruption to 422.
	// Model-artifact loading is bounded by the same limits.
	decodeLimits safedec.Limits

	// modelDir, when set, points at a caroltrain registry: the newest
	// version of every model is warm-loaded at boot, served on /v1/predict,
	// and hot-swapped on SIGHUP. Empty disables model serving.
	modelDir string

	// registryWatch, when positive, polls the registry manifests at this
	// interval and hot-swaps on change — fleet convergence without SIGHUP
	// fan-out. Zero disables the poll (SIGHUP still works).
	registryWatch time.Duration

	// selectorSeed seeds the mode=auto bandit's exploration RNG — a fixed
	// seed makes the decision sequence reproducible (tests and the smoke
	// fleet pin outcomes on it).
	selectorSeed uint64
	// selectorEpsilon is the mode=auto exploration probability; negative
	// disables exploration entirely.
	selectorEpsilon float64

	timeouts httpkit.Timeouts
}

// defaultConfig returns production defaults: generous read/write windows
// (bodies run to 512 MiB), a bounded in-flight ceiling sized for the
// compressors' CPU-heavy handlers, and online estimator-error tracking on.
func defaultConfig() config {
	return config{
		maxInflight:         64,
		trackEstimatorError: true,
		// Stricter than the safedec library defaults: the body cap is
		// 512 MiB, so a legitimate stream can never decode to more than
		// MaxBody/4 float32 samples even at ratio 1.
		decodeLimits: safedec.Limits{
			MaxElements: httpkit.MaxBody / 4,
			MaxAlloc:    1 << 30,
			MaxCount:    1 << 16,
		},
		selectorSeed:    1,
		selectorEpsilon: 0.05,
		timeouts:        httpkit.DefaultTimeouts(),
	}
}

// server adds carolserve's endpoints to the shared serving kit (DESIGN.md
// §10). All metrics live in obs.Default — the same registry the
// instrumented internal packages (features, fraz, rf, secre, compressor)
// write to — so /metrics is one coherent view of the whole pipeline.
type server struct {
	*httpkit.Server
	cfg config
	reg *obs.Registry
	// models is the hot-swappable model store, nil without -model-dir.
	models *modelStore
	// selector is the mode=auto adaptive codec chooser (DESIGN.md §16).
	selector *selector.Selector
	// fields lends request fields their sample storage (readField).
	fields zpool.FreeList[[]float32]

	fieldsReused, fieldsAllocated *obs.Counter
}

// newServer builds the HTTP handler with default settings (separated from
// main for testing).
func newServer() http.Handler { return newServerWith(defaultConfig()) }

// newServerWith builds the server for cfg.
func newServerWith(cfg config) *server {
	s := &server{cfg: cfg, reg: obs.Default, fields: make(zpool.FreeList[[]float32], 4),
		fieldsReused:    obs.Default.Counter(obs.Label("http_field_storage_total", "result", "reused")),
		fieldsAllocated: obs.Default.Counter(obs.Label("http_field_storage_total", "result", "allocated"))}
	if cfg.modelDir != "" {
		s.models = newModelStore(cfg.modelDir, cfg.decodeLimits)
	}
	sel, err := selector.New(selector.Config{Seed: cfg.selectorSeed, Epsilon: cfg.selectorEpsilon})
	if err != nil {
		// Only reachable with a broken built-in codec registry.
		panic("carolserve: selector: " + err.Error())
	}
	s.selector = sel
	s.Server = httpkit.New("carolserve", "http", cfg.maxInflight, sel)
	s.Handle("/v1/codecs", s.handleCodecs)
	s.Handle("POST /v1/compress", s.handleCompress)
	s.Handle("POST /v1/decompress", s.handleDecompress)
	s.Handle("POST /v1/estimate", s.handleEstimate)
	s.Handle("GET /v1/models", s.handleModels)
	s.Handle("POST /v1/predict", s.handlePredict)
	s.Handle("/readyz", s.handleReadyz)
	return s
}
