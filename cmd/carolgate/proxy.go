package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"carol/internal/httpkit"
)

// errNoShards reports an empty healthy set, mapped to 503 + Retry-After.
var errNoShards = errors.New("no healthy shards")

// shardState is the mutable health record for one ring member. All fields
// are atomics: the probe loop writes, the request path reads, no lock.
type shardState struct {
	url string
	// healthy gates routing. Starts false; the boot probe sweep flips it.
	healthy atomic.Bool
	// fails counts consecutive probe failures, driving the backoff.
	fails atomic.Int64
	// nextProbe is the earliest unix-nano instant the prober may probe
	// again — failing shards back off exponentially so a dead shard costs
	// probe-timeout only a few times, not every sweep.
	nextProbe atomic.Int64
}

func newShardState(url string) *shardState { return &shardState{url: url} }

// healthyShards returns the healthy ring members in ring (sorted) order.
func (g *gate) healthyShards() []string {
	out := make([]string, 0, len(g.shards))
	for _, s := range g.ring.Shards() {
		if g.shards[s].healthy.Load() {
			out = append(out, s)
		}
	}
	return out
}

// markShardDown records a request-path failure: the shard is routed
// around immediately rather than waiting for the next probe sweep.
func (g *gate) markShardDown(name string) {
	ss := g.shards[name]
	if ss.healthy.CompareAndSwap(true, false) {
		log.Printf("carolgate: shard %s marked unhealthy after request failure", name)
		g.healthyGauge.Set(float64(len(g.healthyShards())))
	}
}

// probeAll probes every shard whose backoff window has passed and updates
// the healthy gauge. One synchronous sweep; the prober loop calls it on a
// ticker, run() calls it once before serving.
func (g *gate) probeAll() {
	now := time.Now().UnixNano()
	for _, name := range g.ring.Shards() {
		ss := g.shards[name]
		if now < ss.nextProbe.Load() {
			continue
		}
		g.probe(ss)
	}
	g.healthyGauge.Set(float64(len(g.healthyShards())))
}

// probe hits one shard's /healthz. Success resets the backoff; failure
// doubles it (capped at probeMaxBackoff).
func (g *gate) probe(ss *shardState) {
	req, err := http.NewRequest(http.MethodGet, ss.url+"/healthz", nil)
	if err != nil {
		g.probeFailed(ss, err)
		return
	}
	client := &http.Client{Timeout: g.cfg.probeTimeout}
	resp, err := client.Do(req)
	if err != nil {
		g.probeFailed(ss, err)
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	if cerr := resp.Body.Close(); cerr != nil {
		log.Printf("carolgate: probe body close: %v", cerr)
	}
	if resp.StatusCode != http.StatusOK {
		g.probeFailed(ss, fmt.Errorf("healthz status %d", resp.StatusCode))
		return
	}
	if ss.healthy.CompareAndSwap(false, true) {
		log.Printf("carolgate: shard %s healthy", ss.url)
	}
	ss.fails.Store(0)
	ss.nextProbe.Store(time.Now().Add(g.cfg.probeInterval).UnixNano())
}

func (g *gate) probeFailed(ss *shardState, err error) {
	fails := ss.fails.Add(1)
	if ss.healthy.CompareAndSwap(true, false) {
		log.Printf("carolgate: shard %s unhealthy: %v", ss.url, err)
	}
	backoff := g.cfg.probeInterval << uint(min(fails, 6))
	if backoff > g.cfg.probeMaxBackoff {
		backoff = g.cfg.probeMaxBackoff
	}
	ss.nextProbe.Store(time.Now().Add(backoff).UnixNano())
}

// startProber runs probeAll on a ticker until the returned stop func is
// called. Single goroutine: per-shard backoff is the nextProbe gate, not
// per-shard goroutines.
func (g *gate) startProber() (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(g.cfg.probeInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				g.probeAll()
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

// shardResponse is one shard's answer, fully buffered (bounded by the
// proxy limits) so the gate can retry a replica before committing a
// status line to the client.
type shardResponse struct {
	status int
	header http.Header
	body   []byte
	// rest follows body on the wire: a compress fan-out's slab streams
	// after its container header. Shard answers have none.
	rest [][]byte
}

// parts lists the answer's byte ranges in wire order.
func (r *shardResponse) parts() [][]byte { return append([][]byte{r.body}, r.rest...) }

// retryable reports whether a shard answer should move to the next
// replica: transport errors and gateway-ish statuses mean "this shard
// can't serve anyone right now", while 4xx/422/413 are verdicts about the
// request that every replica would repeat.
func retryable(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout,
		http.StatusInternalServerError:
		return true
	}
	return false
}

// callShard performs one attempt against one shard, buffering the
// response under the proxy limits.
func (g *gate) callShard(shard, method, pathAndQuery string, body []byte) (*shardResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, shard+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	start := time.Now()
	resp, err := g.client.Do(req)
	g.shardSecs(shard).ObserveSince(start)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			log.Printf("carolgate: shard body close: %v", cerr)
		}
	}()
	out, err := httpkit.ReadSized(resp.Body, resp.ContentLength, httpkit.MaxBody)
	if err != nil {
		return nil, fmt.Errorf("shard response: %w", err)
	}
	return &shardResponse{status: resp.StatusCode, header: resp.Header, body: out}, nil
}

// routeWithRetry walks key's replica sequence — healthy shards first, in
// ring order — calling each until one answers non-retryably. A failing
// shard is marked down on the spot. The error is errNoShards when no
// candidate exists (503 + Retry-After at the edge).
func (g *gate) routeWithRetry(key, method, pathAndQuery string, body []byte) (*shardResponse, error) {
	return g.routeCandidates(g.ring.Lookup(key, g.ring.Len()), method, pathAndQuery, body)
}

// routeCandidates tries candidates in order until one answers
// non-retryably.
func (g *gate) routeCandidates(candidates []string, method, pathAndQuery string, body []byte) (*shardResponse, error) {
	attempts := 0
	var lastErr error
	for _, shard := range candidates {
		if !g.shards[shard].healthy.Load() {
			continue
		}
		if attempts > 0 {
			g.retried.Inc()
		}
		attempts++
		resp, err := g.callShard(shard, method, pathAndQuery, body)
		if err != nil {
			lastErr = fmt.Errorf("shard %s: %w", shard, err)
			log.Printf("carolgate: %v (trying next replica)", lastErr)
			g.markShardDown(shard)
			continue
		}
		if retryable(resp.status) {
			lastErr = fmt.Errorf("shard %s: status %d", shard, resp.status)
			continue
		}
		return resp, nil
	}
	if lastErr == nil {
		return nil, errNoShards
	}
	return nil, fmt.Errorf("%w: all replicas failed, last: %v", errNoShards, lastErr)
}

// writeShardResponse relays a buffered shard answer to the client.
func writeShardResponse(w http.ResponseWriter, resp *shardResponse) {
	for k, vs := range resp.header {
		// Hop-by-hop headers stay between gate and shard.
		if k == "Connection" || k == "Keep-Alive" || k == "Transfer-Encoding" {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.status)
	for _, p := range resp.parts() {
		if _, err := w.Write(p); err != nil {
			log.Printf("carolgate: response write: %v", err)
			return
		}
	}
}

// routeKey picks the ring key for a whole-routed request: an explicit
// key= parameter wins (client-controlled affinity), else a deterministic
// digest of the routing-relevant parts of the request.
func routeKey(r *http.Request) string {
	q := r.URL.Query()
	if k := q.Get("key"); k != "" {
		return k
	}
	return r.URL.Path + "?codec=" + q.Get("codec") + "&dims=" + q.Get("dims")
}

// handleProxyWhole routes one request to one shard (with replica retry)
// and relays the answer.
func (g *gate) handleProxyWhole(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Method == http.MethodPost {
		var err error
		// A field body (estimate, predict) must match its dims= here as at
		// the shard; unusable dims are left for the shard's verdict.
		if nx, ny, nz, derr := httpkit.Dims(r.URL.Query().Get("dims")); derr == nil {
			body, err = httpkit.ReadFieldBody(r, nx, ny, nz, g.bodyLimit)
		} else {
			body, err = httpkit.ReadBody(r, g.bodyLimit)
		}
		if err != nil {
			httpkit.RequestError(w, err)
			return
		}
	}
	g.proxyWhole(w, r, body)
}

func (g *gate) proxyWhole(w http.ResponseWriter, r *http.Request, body []byte) {
	resp, err := g.routeWithRetry(routeKey(r), r.Method, r.URL.RequestURI(), body)
	g.relay(w, g.Label(r.URL.Path), resp, err)
}

// relay is the thin HTTP writer behind every routed endpoint: it counts
// the outcome under endpoint and writes the shard's (or the fan-out's
// assembled) answer, or maps the routing failure to its status.
func (g *gate) relay(w http.ResponseWriter, endpoint string, resp *shardResponse, err error) {
	if err != nil {
		g.failed(endpoint).Inc()
		routeError(w, err)
		return
	}
	g.routed(endpoint).Inc()
	writeShardResponse(w, resp)
}

// routeError maps a routing failure: client-caused errors are 400,
// no-shard conditions are the fleet's problem (503, retry later), anything
// else bubbled a shard's verdict about the data (502).
func routeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errBadRequest):
		httpkit.Error(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, errNoShards):
		w.Header().Set("Retry-After", "1")
		httpkit.Error(w, http.StatusServiceUnavailable, "%v", err)
	default:
		httpkit.Error(w, http.StatusBadGateway, "%v", err)
	}
}

// shardModel is one model as a shard's /v1/models endpoint reports it:
// the published version plus the surrogate backend serving it. After a
// publish swaps backends the fleet view must show both, or a
// half-converged fleet (same version, different backend tag) would look
// healthy.
type shardModel struct {
	Version int
	Backend string
}

// shardModels fetches one shard's /v1/models listing and reduces it to
// name→{version, backend} — the per-shard carol_model_version view
// /v1/fleet aggregates.
func (g *gate) shardModels(shard string) (map[string]shardModel, error) {
	resp, err := g.callShard(shard, http.MethodGet, "/v1/models", nil)
	if err != nil {
		return nil, err
	}
	if resp.status == http.StatusNotFound {
		return nil, nil // shard runs without -model-dir: nothing to converge
	}
	if resp.status != http.StatusOK {
		return nil, fmt.Errorf("shard %s /v1/models: status %d", shard, resp.status)
	}
	var infos []struct {
		Model   string `json:"model"`
		Version int    `json:"version"`
		Backend string `json:"backend"`
	}
	if err := json.Unmarshal(resp.body, &infos); err != nil {
		return nil, fmt.Errorf("shard %s /v1/models: %w", shard, err)
	}
	out := make(map[string]shardModel, len(infos))
	for _, mi := range infos {
		out[mi.Model] = shardModel{Version: mi.Version, Backend: mi.Backend}
	}
	return out, nil
}
