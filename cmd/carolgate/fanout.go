package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"carol/internal/field"
	"carol/internal/httpkit"
	"carol/internal/obs"
	"carol/internal/pipeline"
)

// shouldChunk decides whether a compress request fans out: chunking must
// be enabled, the request must carry a plain rel=/abs= bound (ratio
// searches and stream=1 route whole — a FRaZ search needs the whole field,
// and the CPL1 streaming path is the shard's own fan-out), the field must
// clear the size threshold, and there must be at least two healthy shards
// to spread over.
func (g *gate) shouldChunk(req httpkit.Compress, sizeBytes, healthy int) bool {
	if g.cfg.chunkThresholdKiB <= 0 || healthy < 2 || req.Ratio > 0 || req.Stream {
		return false
	}
	return sizeBytes >= g.cfg.chunkThresholdKiB<<10
}

// readCompress is the front half of both compress endpoints: the query is
// validated before the body is read, so a bad request never costs a shard
// round trip — and answers what a shard would have.
func (g *gate) readCompress(w http.ResponseWriter, r *http.Request) (req httpkit.Compress, body []byte, ok bool) {
	req, err := httpkit.ParseCompress(r.URL.Query())
	if err == nil {
		body, err = httpkit.ReadFieldBody(r, req.Nx, req.Ny, req.Nz, g.bodyLimit)
	}
	if err != nil {
		httpkit.RequestError(w, err)
		return req, nil, false
	}
	return req, body, true
}

func (g *gate) handleCompress(w http.ResponseWriter, r *http.Request) {
	req, body, ok := g.readCompress(w, r)
	if !ok {
		return
	}
	resp, err := g.routeCompress(req, r.URL.RawQuery, routeKey(r), body)
	g.relay(w, "/v1/compress", resp, err)
}

// errBadRequest classifies routeCompress failures the client caused.
var errBadRequest = errors.New("bad request")

// routeCompress is the one compress routing decision, shared by the
// synchronous handler and the async job: small fields route whole to the
// shard owning key and its answer comes back verbatim; large ones fan out,
// and the assembled container comes back dressed as a shard answer.
//
// A fan-out resolves bound and codec HERE, before the field splits, with
// the same resolver steps a shard runs: the whole-field bound is pinned
// with abs= so per-slab value ranges can't loosen it, and mode=auto scores
// the whole field once so every slab uses the single chosen codec (a
// per-slab choice would produce a mixed container no single-codec
// decompress could open). One slab per healthy shard (pipeline.SplitField
// geometry) is compressed by the shard owning its ring key, and the
// per-slab streams are framed into the exact CPL1 container a local
// pipeline.New(codec, pipeline.Options{Blocks: n}).Compress would emit.
func (g *gate) routeCompress(req httpkit.Compress, rawQuery, key string, body []byte) (*shardResponse, error) {
	healthy := g.healthyShards()
	if !g.shouldChunk(req, len(body), len(healthy)) {
		return g.routeWithRetry(key, http.MethodPost, "/v1/compress?"+rawQuery, body)
	}
	tr := g.reg.StartTrace("gate_compress_fanout")
	defer tr.End()
	// The body is decoded only as far as the request needs: whole for
	// mode=auto's scoring, a value-range scan for rel=, not at all for abs=
	// with a named codec.
	var ff *field.Field
	valueRange := func() float64 { return field.RawValueRange(body) }
	if req.Auto {
		span := tr.StartSpan("parse")
		ff = field.DecodeRaw("gate", req.Nx, req.Ny, req.Nz, body)
		span.End()
		valueRange = ff.ValueRange
	}
	span := tr.StartSpan("split")
	eb, err := req.Bound(valueRange)
	// SplitField slabs are consecutive ranges of the field's samples, so
	// slab i is body[offs[i]:offs[i+1]] — readCompress has checked that the
	// body is exactly the dims' size — and is posted as that slice.
	dims := pipeline.ExpectedSlabDims(req.Nx, req.Ny, req.Nz, len(healthy))
	offs := make([]int, len(dims)+1)
	for i, d := range dims {
		offs[i+1] = offs[i] + 4*d[0]*d[1]*d[2]
	}
	span.End()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	codecName, dec, err := req.ResolveCodec(tr, g.sel, ff, eb)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}

	cands := g.ring.Lookup(key, g.ring.Len())
	g.fanned.Inc()
	span = tr.StartSpan("fanout")
	streams, err := pipeline.FanOut(len(dims), g.cfg.fanoutWorkers, func(i int) ([]byte, error) {
		pq := url.Values{}
		pq.Set("codec", codecName)
		pq.Set("abs", strconv.FormatFloat(eb, 'g', 17, 64))
		pq.Set("dims", fmt.Sprintf("%dx%dx%d", dims[i][0], dims[i][1], dims[i][2]))
		resp, err := g.routeCandidates(slabCandidates(cands, i),
			http.MethodPost, "/v1/compress?"+pq.Encode(), body[offs[i]:offs[i+1]])
		if err != nil {
			return nil, fmt.Errorf("slab %d: %w", i, err)
		}
		switch resp.status {
		case http.StatusOK:
			return resp.body, nil
		case http.StatusBadRequest:
			// The query was checked at the door, so the slab's own samples
			// were refused (NaN, ±Inf): the client's data, relayed as theirs.
			return nil, fmt.Errorf("%w: slab %d: %s", errBadRequest, i, truncate(resp.body))
		}
		return nil, fmt.Errorf("slab %d: shard status %d: %s", i, resp.status, truncate(resp.body))
	})
	span.End()
	if err != nil {
		return nil, err
	}
	g.reg.Histogram("gate_fanout_chunks", obs.LinearBuckets(1, 1, 16)).Observe(float64(len(streams)))
	// The CPL1 container goes out part by part — its header, then each
	// shard answer itself behind its length; only a job, which keeps its
	// result, joins them.
	parts := pipeline.Parts(req.Nx, req.Ny, req.Nz, streams)
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	achieved := float64(len(body)) / float64(size)
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/octet-stream")
	hdr.Set("Content-Length", strconv.Itoa(size))
	hdr.Set("X-Carol-Achieved-Ratio", strconv.FormatFloat(achieved, 'g', 6, 64))
	hdr.Set("X-Carol-Fanout-Chunks", strconv.Itoa(len(streams)))
	if dec != nil {
		// Score the prediction against the end-to-end achieved ratio of the
		// assembled container — the number the client actually sees.
		g.sel.Observe(*dec, achieved)
		hdr.Set("X-Carol-Codec-Chosen", codecName)
	}
	return &shardResponse{status: http.StatusOK, header: hdr, body: parts[0], rest: parts[1:]}, nil
}

// slabCandidates rotates the base key's replica walk by the slab index:
// slab i's primary is the i-th distinct replica, so one field's slabs
// spread across distinct shards deterministically instead of landing
// wherever per-slab hashes happen to fall (with small fleets, often all
// on one shard). The rotated tail remains a valid retry order.
func slabCandidates(cands []string, i int) []string {
	if len(cands) == 0 {
		return cands
	}
	r := i % len(cands)
	out := make([]string, 0, len(cands))
	out = append(out, cands[r:]...)
	return append(out, cands[:r]...)
}

// handleDecompress splits a slab container (CPL1, or the legacy CCH1) into
// its frames, fans them out to the shards owning them and reassembles the
// raw field in slab order — with any number of healthy shards, since a
// shard decodes frames, not containers, and with one the replica walk puts
// every frame on it. Anything else (a single codec stream) routes whole.
func (g *gate) handleDecompress(w http.ResponseWriter, r *http.Request) {
	body, err := httpkit.ReadBody(r, g.bodyLimit)
	if err != nil {
		httpkit.RequestError(w, err)
		return
	}
	if !pipeline.IsContainer(body) {
		g.proxyWhole(w, r, body)
		return
	}
	tr := g.reg.StartTrace("gate_decompress_fanout")
	defer tr.End()
	span := tr.StartSpan("parse")
	h, chunks, err := pipeline.Frames(body, g.cfg.proxyLimits)
	span.End()
	if err != nil {
		httpkit.Error(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	nx, ny, nz, want := h.Nx, h.Ny, h.Nz, h.Blocks
	cands := g.ring.Lookup(routeKey(r), g.ring.Len())
	codec := r.URL.Query().Get("codec")
	g.fanned.Inc()
	span = tr.StartSpan("fanout")
	slabBytes, err := pipeline.FanOut(len(chunks), g.cfg.fanoutWorkers, func(i int) ([]byte, error) {
		pq := url.Values{}
		pq.Set("codec", codec)
		resp, err := g.routeCandidates(slabCandidates(cands, i),
			http.MethodPost, "/v1/decompress?"+pq.Encode(), chunks[i])
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		if resp.status != http.StatusOK {
			return nil, fmt.Errorf("chunk %d: shard status %d: %s", i, resp.status, truncate(resp.body))
		}
		d := want[i]
		if len(resp.body) != d[0]*d[1]*d[2]*4 {
			return nil, fmt.Errorf("chunk %d: shard returned %d bytes, want %d",
				i, len(resp.body), d[0]*d[1]*d[2]*4)
		}
		return resp.body, nil
	})
	span.End()
	if err != nil {
		g.failed("/v1/decompress").Inc()
		routeError(w, err)
		return
	}
	g.routed("/v1/decompress").Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(4*nx*ny*nz))
	w.Header().Set("X-Carol-Dims", fmt.Sprintf("%dx%dx%d", nx, ny, nz))
	w.Header().Set("X-Carol-Fanout-Chunks", strconv.Itoa(len(chunks)))
	w.Header().Set("X-Carol-Trace", tr.String())
	for _, sb := range slabBytes {
		if _, err := w.Write(sb); err != nil {
			g.failed("/v1/decompress").Inc()
			return
		}
	}
}

// truncate bounds an error-body echo.
func truncate(b []byte) string {
	const n = 200
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}
