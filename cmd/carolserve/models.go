package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"carol/internal/features"
	"carol/internal/field"
	"carol/internal/httpkit"
	"carol/internal/model"
	"carol/internal/obs"
	"carol/internal/registry"
	"carol/internal/safedec"
)

// loadedModel pairs a decoded artifact with its registry provenance. The
// struct is immutable after load: hot swap replaces whole *loadedModel
// pointers, never mutates one, so an in-flight request that grabbed a
// pointer keeps predicting against the same model until it finishes.
type loadedModel struct {
	version  registry.Version
	artifact *model.Artifact
	stats    model.Stats
}

// modelSet is one immutable generation of loaded models, keyed by name.
type modelSet map[string]*loadedModel

// modelStore owns the registry-backed model lifecycle: warm load at boot,
// SIGHUP-triggered reload, and lock-free reads on the serving path. The
// current generation hangs off a single atomic pointer; Reload builds the
// next generation off to the side and publishes it with one swap.
type modelStore struct {
	dir     string
	limits  safedec.Limits
	current atomic.Pointer[modelSet]

	reg       *obs.Registry
	loadTotal func(result string) *obs.Counter
}

func newModelStore(dir string, lim safedec.Limits) *modelStore {
	ms := &modelStore{dir: dir, limits: lim, reg: obs.Default}
	ms.loadTotal = func(result string) *obs.Counter {
		return ms.reg.Counter(obs.Label("model_load_total", "result", result))
	}
	empty := modelSet{}
	ms.current.Store(&empty)
	return ms
}

// set returns the current generation (never nil).
func (ms *modelStore) set() modelSet { return *ms.current.Load() }

// forCodec picks the model that predicts bounds for codec: the one
// published under the codec's own name, else the first by name among those
// trained for it (a deterministic choice — identical requests must get
// identical answers), else nil.
func (set modelSet) forCodec(codec string) *loadedModel {
	if lm := set[codec]; lm != nil && lm.artifact.Codec == codec {
		return lm
	}
	var pick *loadedModel
	pickName := ""
	for name, lm := range set {
		if lm.artifact.Codec == codec && (pick == nil || name < pickName) {
			pick, pickName = lm, name
		}
	}
	return pick
}

// predictBound asks the loaded model for codec which relative bound should
// reach ratio on f — the seed of the ratio= search. It reads one generation
// of the store, so a concurrent hot swap cannot change the model under it.
// Zero (the search then starts unseeded) without a model for the codec or
// when the model cannot answer; f's features are extracted only when there
// is a model to ask.
func (s *server) predictBound(tr *obs.Trace, codec string, ratio float64, f *field.Field) float64 {
	if s.models == nil {
		return 0
	}
	lm := s.models.set().forCodec(codec)
	if lm == nil || lm.artifact.ServingCheck() != nil {
		return 0
	}
	span := tr.StartSpan("features")
	feat := features.ExtractParallel(f, features.ParallelOptions{})
	span.End()
	span = tr.StartSpan("predict")
	ebs, err := model.PredictErrorBounds(lm.artifact.Regressor, feat, []float64{ratio})
	span.End()
	if err != nil {
		log.Printf("carolserve: ratio= prediction, model for %s v%d: %v", codec, lm.version.Number, err)
		return 0
	}
	return ebs[0]
}

// Ready reports whether at least one model is serving. /readyz gates on
// this so a load balancer only routes traffic once predictions can be
// answered.
func (ms *modelStore) Ready() bool { return len(ms.set()) > 0 }

// Reload loads the latest version of every model in the registry and
// atomically swaps the serving set. A model that fails to load keeps its
// previously served generation (counted under model_load_total{result=
// "error"}) — a bad publish must not take down models that were healthy.
func (ms *modelStore) Reload() error {
	reg, err := registry.Open(ms.dir)
	if err != nil {
		ms.loadTotal("error").Inc()
		return err
	}
	names, err := reg.List()
	if err != nil {
		ms.loadTotal("error").Inc()
		return err
	}
	prev := ms.set()
	next := make(modelSet, len(names))
	var firstErr error
	for _, name := range names {
		lm, err := ms.loadLatest(reg, name, prev[name])
		if err != nil {
			ms.loadTotal("error").Inc()
			log.Printf("carolserve: model %s: %v", name, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("model %s: %w", name, err)
			}
			if prev[name] != nil {
				next[name] = prev[name] // keep serving the old generation
			}
			continue
		}
		next[name] = lm
	}
	ms.current.Store(&next)
	return firstErr
}

// loadLatest loads name's newest version, short-circuiting when prev
// already serves it (a SIGHUP with nothing new is free).
func (ms *modelStore) loadLatest(reg *registry.Registry, name string, prev *loadedModel) (*loadedModel, error) {
	latest, err := reg.Latest(name)
	if err != nil {
		return nil, err
	}
	if prev != nil && prev.version.Number == latest.Number && prev.version.SHA256 == latest.SHA256 {
		return prev, nil
	}
	art, err := reg.Load(latest, ms.limits)
	if err != nil {
		return nil, err
	}
	if err := art.ServingCheck(); err != nil {
		return nil, err
	}
	lm := &loadedModel{version: latest, artifact: art, stats: art.Stats()}
	st := lm.stats
	ms.loadTotal("ok").Inc()
	ms.reg.Gauge(obs.Label("model_loaded_version", "model", name)).Set(float64(latest.Number))
	// carol_model_version is the fleet-convergence gauge: the gate's
	// /v1/fleet view compares it (via /v1/models) across shards.
	ms.reg.Gauge(obs.Label("carol_model_version", "model", name)).Set(float64(latest.Number))
	ms.reg.Gauge(obs.Label("model_forest_trees", "model", name)).Set(float64(st.Trees))
	ms.reg.Gauge(obs.Label("model_forest_nodes", "model", name)).Set(float64(st.Nodes))
	ms.reg.Gauge(obs.Label("model_forest_max_depth", "model", name)).Set(float64(st.MaxDepth))
	log.Printf("carolserve: loaded model %s v%d (backend %s, %d trees, %d nodes, depth %d)",
		name, latest.Number, st.Backend, st.Trees, st.Nodes, st.MaxDepth)
	return lm, nil
}

// watchHUP reloads the store on every SIGHUP until stop is called — the
// operational contract: publish with caroltrain, `kill -HUP`, and the
// server swaps without dropping a request.
func (ms *modelStore) watchHUP() (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGHUP)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ch {
			if err := ms.Reload(); err != nil {
				log.Printf("carolserve: reload: %v", err)
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
		<-done
	}
}

// fingerprint reduces the registry's current state to a comparable string:
// every model's latest (number, sha256) pair in sorted name order. Two
// equal fingerprints mean a reload would be a no-op, so the watch loop
// only pays for Reload (artifact decode + serving check) on real change.
func (ms *modelStore) fingerprint() (string, error) {
	reg, err := registry.Open(ms.dir)
	if err != nil {
		return "", err
	}
	names, err := reg.List()
	if err != nil {
		return "", err
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		latest, err := reg.Latest(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s=%d:%s;", name, latest.Number, latest.SHA256)
	}
	return b.String(), nil
}

// watchRegistry polls the registry manifests at interval and reloads when
// the latest-version fingerprint changes — fleet convergence without
// SIGHUP fan-out: publish once, every shard notices on its next poll and
// hot-swaps. The returned stop func halts the loop and waits for it.
func (ms *modelStore) watchRegistry(interval time.Duration) (stop func()) {
	last, err := ms.fingerprint()
	if err != nil {
		last = "" // first successful poll will trigger a reload attempt
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fp, err := ms.fingerprint()
				if err != nil {
					log.Printf("carolserve: registry watch: %v", err)
					continue
				}
				if fp == last {
					continue
				}
				log.Printf("carolserve: registry changed, reloading models")
				if err := ms.Reload(); err != nil {
					log.Printf("carolserve: registry watch reload: %v", err)
				}
				// Advance even on partial failure: Reload keeps healthy
				// generations and logged what broke; repolling an unchanged
				// broken registry every tick would just repeat the error.
				last = fp
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// modelInfo is one entry of the /v1/models listing.
type modelInfo struct {
	Model   string `json:"model"`
	Version int    `json:"version"`
	SHA256  string `json:"sha256"`
	Size    int64  `json:"size"`
	Codec   string `json:"codec"`
	// Backend is the regressor family serving this model (rf|boost); a
	// new caroltrain publish can change it between versions.
	Backend  string `json:"backend"`
	Trees    int    `json:"trees"`
	Nodes    int    `json:"nodes"`
	MaxDepth int    `json:"max_depth"`
}

// handleModels lists the currently served models (GET /v1/models).
func (s *server) handleModels(w http.ResponseWriter, r *http.Request) {
	if s.models == nil {
		httpkit.Error(w, http.StatusNotFound, "no -model-dir configured")
		return
	}
	set := s.models.set()
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	infos := make([]modelInfo, 0, len(names))
	for _, name := range names {
		lm := set[name]
		infos = append(infos, modelInfo{
			Model:    name,
			Version:  lm.version.Number,
			SHA256:   lm.version.SHA256,
			Size:     lm.version.Size,
			Codec:    lm.artifact.Codec,
			Backend:  lm.stats.Backend,
			Trees:    lm.stats.Trees,
			Nodes:    lm.stats.Nodes,
			MaxDepth: lm.stats.MaxDepth,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(infos); err != nil {
		log.Printf("carolserve: models encode: %v", err)
	}
}

// parseRatios parses the comma-separated ratio= query parameter.
func parseRatios(s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("need ratio=")
	}
	parts := strings.Split(s, ",")
	const maxRatios = 256
	if len(parts) > maxRatios {
		return nil, fmt.Errorf("too many ratios (max %d)", maxRatios)
	}
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad ratio %q: need a positive finite number", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// handlePredict serves error-bound predictions from a loaded model:
//
//	POST /v1/predict?model=sz3&ratio=50,100&dims=128x128x64  (raw float32 body)
//
// The model parameter may be omitted when exactly one model is loaded.
// The response carries the model version so callers can attribute every
// prediction to an exact artifact across hot swaps.
func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if s.models == nil {
		httpkit.Error(w, http.StatusNotFound, "no -model-dir configured")
		return
	}
	set := s.models.set()
	if len(set) == 0 {
		w.Header().Set("Retry-After", "1")
		httpkit.Error(w, http.StatusServiceUnavailable, "no models loaded")
		return
	}
	q := r.URL.Query()
	name := q.Get("model")
	if name == "" {
		if len(set) > 1 {
			httpkit.Error(w, http.StatusBadRequest, "need model= (%d models loaded)", len(set))
			return
		}
		for n := range set {
			name = n
		}
	}
	lm, ok := set[name]
	if !ok {
		httpkit.Error(w, http.StatusNotFound, "model %q not loaded", name)
		return
	}
	ratios, err := parseRatios(q.Get("ratio"))
	if err != nil {
		httpkit.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	f, err := s.readFieldBody(r)
	if err != nil {
		httpkit.RequestError(w, err)
		return
	}
	defer s.releaseField(f)
	hist := s.reg.Histogram(obs.Label("model_predict_seconds", "model", name), obs.LatencyBuckets())
	start := time.Now()
	ebs, err := lm.artifact.PredictErrorBounds(f, ratios, features.ParallelOptions{})
	hist.ObserveSince(start)
	if err != nil {
		httpkit.Error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	resp := struct {
		Model       string    `json:"model"`
		Version     int       `json:"version"`
		Codec       string    `json:"codec"`
		Ratios      []float64 `json:"ratios"`
		ErrorBounds []float64 `json:"error_bounds"`
	}{name, lm.version.Number, lm.artifact.Codec, ratios, ebs}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("carolserve: predict encode: %v", err)
	}
}

// handleReadyz is the readiness probe: 200 once every configured concern
// is serving (a model dir implies at least one loaded model), 503 before.
// Liveness stays on /healthz — a server warming up is alive but not ready.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.models != nil && !s.models.Ready() {
		w.Header().Set("Retry-After", "1")
		httpkit.Error(w, http.StatusServiceUnavailable, "no models loaded")
		return
	}
	if _, err := w.Write([]byte("ready\n")); err != nil {
		log.Printf("carolserve: readyz write: %v", err)
	}
}
