package main

import (
	"encoding/json"
	"log"
	"net/http"
	"time"

	"carol/internal/httpkit"
	"carol/internal/obs"
	"carol/internal/ring"
	"carol/internal/safedec"
	"carol/internal/selector"
)

// gateConfig carries the gate's knobs, set from flags in main and from
// test code directly.
type gateConfig struct {
	virtualNodes int
	maxInflight  int
	// fanoutWorkers bounds concurrent shard requests for one fanned field.
	fanoutWorkers int
	// chunkThresholdKiB: fields at least this large are slab-fanned across
	// the healthy shards instead of routed whole. 0 disables chunking.
	chunkThresholdKiB int

	probeInterval   time.Duration
	probeTimeout    time.Duration
	probeMaxBackoff time.Duration
	shardTimeout    time.Duration

	// proxyLimits bounds what the gate will allocate from client- or
	// shard-claimed sizes (container headers on the decompress fan-out
	// path, bodies everywhere). Zero-value fields take safedec defaults.
	proxyLimits safedec.Limits

	timeouts httpkit.Timeouts
}

// defaultGateConfig mirrors carolserve's production posture: generous
// read/write windows for big bodies, bounded everything else.
func defaultGateConfig() gateConfig {
	return gateConfig{
		virtualNodes:      ring.DefaultVirtualNodes,
		maxInflight:       128,
		fanoutWorkers:     8,
		chunkThresholdKiB: 1024,
		probeInterval:     500 * time.Millisecond,
		probeTimeout:      2 * time.Second,
		probeMaxBackoff:   5 * time.Second,
		shardTimeout:      5 * time.Minute,
		proxyLimits: safedec.Limits{
			MaxElements: httpkit.MaxBody / 4,
			MaxAlloc:    1 << 30,
			MaxCount:    1 << 16,
		},
		timeouts: httpkit.DefaultTimeouts(),
	}
}

// gate adds the routing state and fleet endpoints to the shared serving
// kit (DESIGN.md §10). The ring is immutable (membership is fixed at boot);
// per-shard health lives in shardState and is the only mutable routing
// input, so the request path is lock-free.
type gate struct {
	*httpkit.Server
	cfg    gateConfig
	ring   *ring.Ring
	shards map[string]*shardState
	client *http.Client
	// sel resolves mode=auto on the slab fan-out path, once before the
	// field splits (every slab of one field uses one codec). Whole-routed
	// auto requests are decided by the shard.
	sel *selector.Selector
	reg *obs.Registry
	// bodyLimit caps buffered client bodies: MaxBody, or the proxy
	// allocation limit when that is tighter.
	bodyLimit int64

	healthyGauge *obs.Gauge
	routed       func(endpoint string) *obs.Counter
	retried      *obs.Counter
	failed       func(endpoint string) *obs.Counter
	fanned       *obs.Counter
	shardSecs    func(shard string) *obs.Histogram
}

// newGate builds the gate over a fixed shard fleet. Shards start
// unhealthy; the first probe sweep (run's probeAll) flips them.
func newGate(cfg gateConfig, shardURLs []string) (*gate, error) {
	cfg.proxyLimits = cfg.proxyLimits.Norm()
	r, err := ring.New(shardURLs, ring.Options{VirtualNodes: cfg.virtualNodes})
	if err != nil {
		return nil, err
	}
	g := &gate{
		cfg:          cfg,
		ring:         r,
		shards:       make(map[string]*shardState, len(shardURLs)),
		client:       &http.Client{Timeout: cfg.shardTimeout, Transport: shardTransport(cfg)},
		reg:          obs.Default,
		bodyLimit:    min(httpkit.MaxBody, cfg.proxyLimits.MaxAlloc),
		healthyGauge: obs.Default.Gauge("carol_fleet_healthy_shards"),
		retried:      obs.Default.Counter("gate_retried_total"),
		fanned:       obs.Default.Counter("gate_fanout_total"),
	}
	sel, err := selector.New(selector.Config{})
	if err != nil {
		return nil, err
	}
	g.sel = sel
	g.routed = func(endpoint string) *obs.Counter {
		return g.reg.Counter(obs.Label("gate_routed_total", "endpoint", endpoint))
	}
	g.failed = func(endpoint string) *obs.Counter {
		return g.reg.Counter(obs.Label("gate_failed_total", "endpoint", endpoint))
	}
	// Shard label values come from the operator's -shards flag (a fixed,
	// bounded set), not from request input.
	g.shardSecs = func(shard string) *obs.Histogram {
		return g.reg.Histogram(obs.Label("gate_shard_request_seconds", "shard", shard), obs.LatencyBuckets())
	}
	for _, s := range r.Shards() {
		g.shards[s] = newShardState(s)
	}

	g.Server = httpkit.New("carolgate", "gate", cfg.maxInflight, sel)
	g.Handle("POST /v1/compress", g.handleCompress)
	g.Handle("POST /v1/decompress", g.handleDecompress)
	g.Handle("/v1/estimate", g.handleProxyWhole)
	g.Handle("/v1/predict", g.handleProxyWhole)
	g.Handle("/v1/models", g.handleProxyWhole)
	g.Handle("/v1/codecs", g.handleProxyWhole)
	g.Handle("GET /v1/fleet", g.handleFleet)
	g.Handle("/readyz", g.handleReadyz)
	return g, nil
}

// shardTransport keeps an idle connection per shard for every request that
// can be in flight (each holds one per shard at a time), where the default
// transport keeps two and a busy gate would dial for the rest of every
// fan-out.
func shardTransport(cfg gateConfig) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0
	t.MaxIdleConnsPerHost = cfg.maxInflight
	return t
}

// handleReadyz: the gate is ready once it can route somewhere.
func (g *gate) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(g.healthyShards()) == 0 {
		w.Header().Set("Retry-After", "1")
		httpkit.Error(w, http.StatusServiceUnavailable, "no healthy shards")
		return
	}
	if _, err := w.Write([]byte("ready\n")); err != nil {
		log.Printf("carolgate: readyz write: %v", err)
	}
}

// fleetShard is one entry of the /v1/fleet listing.
type fleetShard struct {
	Shard        string            `json:"shard"`
	Healthy      bool              `json:"healthy"`
	ConsecFails  int64             `json:"consecutive_failures,omitempty"`
	ModelVersion map[string]int    `json:"model_versions,omitempty"`
	ModelBackend map[string]string `json:"model_backends,omitempty"`
}

// fleetStatus is the /v1/fleet response: per-shard health and model
// versions (fetched live from each shard's /v1/models endpoint) plus the
// aggregate convergence verdict the fleet smoke test gates on.
type fleetStatus struct {
	Shards     []fleetShard `json:"shards"`
	Healthy    int          `json:"healthy_shards"`
	RingShards int          `json:"ring_shards"`
	Converged  bool         `json:"models_converged"`
}

// handleFleet aggregates shard health and per-shard model versions.
func (g *gate) handleFleet(w http.ResponseWriter, r *http.Request) {
	st := fleetStatus{RingShards: g.ring.Len(), Converged: true}
	// Model versions (and serving backends) every healthy shard agrees on;
	// any disagreement (or a healthy shard that cannot answer) flips
	// Converged.
	seen := map[string]shardModel{}
	for _, name := range g.ring.Shards() {
		ss := g.shards[name]
		fs := fleetShard{Shard: name, Healthy: ss.healthy.Load(), ConsecFails: ss.fails.Load()}
		if fs.Healthy {
			st.Healthy++
			models, err := g.shardModels(name)
			if err != nil {
				st.Converged = false
			} else {
				if len(models) > 0 {
					fs.ModelVersion = make(map[string]int, len(models))
					fs.ModelBackend = make(map[string]string, len(models))
				}
				for m, sm := range models {
					fs.ModelVersion[m] = sm.Version
					fs.ModelBackend[m] = sm.Backend
					if prev, ok := seen[m]; ok && prev != sm {
						st.Converged = false
					}
					seen[m] = sm
				}
			}
		}
		st.Shards = append(st.Shards, fs)
	}
	if st.Healthy == 0 {
		st.Converged = false
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(st); err != nil {
		log.Printf("carolgate: fleet encode: %v", err)
	}
}
