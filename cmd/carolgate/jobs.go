package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"

	"carol/internal/httpkit"
)

// tenantOf extracts the tenant a job is accounted to: the X-Carol-Tenant
// header, then the tenant= parameter, then "default". Quotas are
// accounting, not auth — a bounded alphabet check keeps tenant strings
// from smuggling junk into logs and JSON, but anyone can claim any name.
func tenantOf(r *http.Request) (string, error) {
	t := r.Header.Get("X-Carol-Tenant")
	if t == "" {
		t = r.URL.Query().Get("tenant")
	}
	if t == "" {
		return "default", nil
	}
	if len(t) > 64 {
		return "", fmt.Errorf("tenant name too long")
	}
	for _, c := range t {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.') {
			return "", fmt.Errorf("bad tenant name")
		}
	}
	return t, nil
}

// jobAccepted is the 202 response body.
type jobAccepted struct {
	ID        string `json:"id"`
	StatusURL string `json:"status_url"`
	ResultURL string `json:"result_url"`
}

// handleJobSubmit admits a large compress request into the async queue:
// the query is validated and the body buffered under the proxy limits up
// front, the job runs the same routeCompress as the synchronous path, and
// the client polls /v1/jobs/{id} until the result is streamable.
func (g *gate) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantOf(r)
	if err != nil {
		httpkit.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	req, body, ok := g.readCompress(w, r)
	if !ok {
		return
	}
	// Snapshot the routing-relevant request state; the job outlives r.
	rawQuery, key := r.URL.RawQuery, routeKey(r)
	id, err := g.queue.submit(tenant, "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
		resp, err := g.routeCompress(req, rawQuery, key, body)
		if err != nil {
			return nil, nil, err
		}
		if resp.status != http.StatusOK {
			return nil, nil, fmt.Errorf("shard status %d: %s", resp.status, truncate(resp.body))
		}
		// The mode=auto chosen codec rides along as result metadata, whether
		// the gate picked it for a fan-out or a shard for a whole request.
		out := resp.body
		if resp.rest != nil {
			out = bytes.Join(resp.parts(), nil) // a job keeps one result slice
		}
		return out, codecMeta(resp.header.Get("X-Carol-Codec-Chosen")), nil
	})
	if err != nil {
		jobAdmissionError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	resp := jobAccepted{
		ID:        id,
		StatusURL: "/v1/jobs/" + id,
		ResultURL: "/v1/jobs/" + id + "/result",
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("carolgate: job accept encode: %v", err)
	}
}

// codecMeta wraps a chosen-codec name as job result metadata (nil when no
// adaptive selection happened).
func codecMeta(chosen string) map[string]string {
	if chosen == "" {
		return nil
	}
	return map[string]string{"codec": chosen}
}

// jobAdmissionError maps queue refusals: full queue → 503 (come back),
// tenant over quota → 429 (you specifically come back), closed → 503.
func jobAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errTenantQuota):
		w.Header().Set("Retry-After", "5")
		httpkit.Error(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, errQueueFull), errors.Is(err, errQueueClosed):
		w.Header().Set("Retry-After", "5")
		httpkit.Error(w, http.StatusServiceUnavailable, "%v", err)
	default:
		httpkit.Error(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleJobGet serves /v1/jobs/{id} (status JSON) and
// /v1/jobs/{id}/result (the result stream once done).
func (g *gate) handleJobGet(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, wantResult := rest, false
	if s, ok := strings.CutSuffix(rest, "/result"); ok {
		id, wantResult = s, true
	}
	if id == "" || strings.Contains(id, "/") {
		httpkit.Error(w, http.StatusNotFound, "bad job path")
		return
	}
	if wantResult {
		g.serveJobResult(w, id)
		return
	}
	st, err := g.queue.get(id)
	if err != nil {
		httpkit.Error(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(st); err != nil {
		log.Printf("carolgate: job status encode: %v", err)
	}
}

// serveJobResult streams a finished job's bytes; an unfinished job
// answers 202 with its status so pollers can share code with the status
// endpoint, and a failed job surfaces its error as 502.
func (g *gate) serveJobResult(w http.ResponseWriter, id string) {
	res, st, err := g.queue.result(id)
	if err != nil {
		httpkit.Error(w, http.StatusNotFound, "%v", err)
		return
	}
	switch st.State {
	case jobQueued, jobRunning:
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		if err := json.NewEncoder(w).Encode(st); err != nil {
			log.Printf("carolgate: job result encode: %v", err)
		}
	case jobFailed:
		httpkit.Error(w, http.StatusBadGateway, "job failed: %s", st.Error)
	default: // jobDone
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Carol-Job-Id", id)
		if c := st.Meta["codec"]; c != "" {
			w.Header().Set("X-Carol-Codec-Chosen", c)
		}
		if _, err := w.Write(res); err != nil {
			log.Printf("carolgate: job result write: %v", err)
		}
	}
}
