package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/fuzzseed"
	"carol/internal/pipeline"
)

// legacyDir holds the CCH1 containers the deleted CCH1 writer left, listed
// with their codec and decoded digest in cch1_digests.txt.
const legacyDir = "../../internal/pipeline/testdata"

// legacyField is the field the per-codec CCH1 containers were written from
// (miranda/density 24x20x12 at rel 1e-3) and its absolute bound.
func legacyField(t *testing.T) (*field.Field, float64) {
	t.Helper()
	f, err := dataset.Generate("miranda", "density", dataset.Options{Nx: 24, Ny: 20, Nz: 12})
	if err != nil {
		t.Fatal(err)
	}
	return f, compressor.AbsBound(f, 1e-3)
}

func readLegacy(t *testing.T, name string) []byte {
	t.Helper()
	b, err := fuzzseed.Read(filepath.Join(legacyDir, "fuzz/FuzzFrames", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// healthyFirst marks the first n shards in ring order healthy and the
// rest down, as probes and failed requests would.
func healthyFirst(g *gate, n int) {
	for i, s := range g.ring.Shards() {
		g.shards[s].healthy.Store(i < n)
	}
}

// TestGateDecompressAnyHealthyCount: a slab container of either magic
// decodes through the gate with one healthy shard of two as with two. The
// gate used to route a container whole below two healthy shards, and a
// shard, which decodes frames, answered 422.
func TestGateDecompressAnyHealthyCount(t *testing.T) {
	urls := []string{codecShard(t, new(atomic.Int64)).URL, codecShard(t, new(atomic.Int64)).URL}
	g := newGateOver(t, urls, nil)
	f, eb := legacyField(t)
	sz3, err := codecs.ByName("sz3")
	if err != nil {
		t.Fatal(err)
	}
	cpl, err := pipeline.New(sz3, pipeline.Options{Blocks: 3}).Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	for _, healthy := range []int{1, 2} {
		healthyFirst(g, healthy)
		for name, container := range map[string][]byte{"CCH1": readLegacy(t, "cch1-sz3"), "CPL1": cpl} {
			w := doGate(t, g, http.MethodPost, "/v1/decompress?codec=sz3", container)
			if w.Code != http.StatusOK {
				t.Errorf("%s with %d healthy: status %d: %s", name, healthy, w.Code, w.Body.String())
				continue
			}
			got, err := field.ReadRaw("answer", f.Nx, f.Ny, f.Nz, w.Body)
			if err == nil {
				err = compressor.CheckBound(f, got, eb)
			}
			if err != nil {
				t.Errorf("%s with %d healthy: %v", name, healthy, err)
			}
		}
	}
}

// TestGateDecodesLegacyCCH1: every checked-in CCH1 container decodes
// through the gate, with one healthy shard and with two, to the field bits
// it decoded to when CCH1 was written — or is refused.
func TestGateDecodesLegacyCCH1(t *testing.T) {
	list, err := os.ReadFile(filepath.Join(legacyDir, "cch1_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	urls := []string{codecShard(t, new(atomic.Int64)).URL, codecShard(t, new(atomic.Int64)).URL}
	g := newGateOver(t, urls, nil)
	for _, healthy := range []int{1, 2} {
		healthyFirst(g, healthy)
		n := 0
		for _, line := range strings.Split(string(list), "\n") {
			fs := strings.Fields(line)
			if len(fs) != 3 || strings.HasPrefix(fs[0], "#") {
				continue
			}
			n++
			w := doGate(t, g, http.MethodPost, "/v1/decompress?codec="+fs[1], readLegacy(t, fs[0]))
			got := "-"
			if w.Code == http.StatusOK {
				got = fmt.Sprintf("%x", sha256.Sum256(w.Body.Bytes()))
			}
			if got != fs[2] {
				t.Errorf("%s with %d healthy: status %d, digest %s; want %s", fs[0], healthy, w.Code, got, fs[2])
			}
		}
		if n != 10 {
			t.Fatalf("%d legacy containers, want 10", n)
		}
	}
}

// faultTransport sits under the gate's shard client and spoils the answers
// to requests on path: the first one when once is set, else every one.
type faultTransport struct {
	base  http.RoundTripper
	path  string
	fault func(r *http.Request, resp *http.Response, body []byte) (*http.Response, error)
	once  bool
	hits  atomic.Int64
}

func (ft *faultTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := ft.base.RoundTrip(r)
	if err != nil || r.URL.Path != ft.path || (ft.once && ft.hits.Add(1) > 1) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return ft.fault(r, resp, body)
}

// errAfter yields its bytes, then err.
type errAfter struct {
	b   []byte
	err error
}

func (e *errAfter) Read(p []byte) (int, error) {
	if len(e.b) == 0 {
		return 0, e.err
	}
	n := copy(p, e.b)
	e.b = e.b[n:]
	return n, nil
}

func (e *errAfter) Close() error { return nil }

// slabFaults are the four ways a shard answer goes wrong on the wire.
var slabFaults = map[string]func(r *http.Request, resp *http.Response, body []byte) (*http.Response, error){
	// The connection closes cleanly after half the declared length.
	"truncated": func(_ *http.Request, resp *http.Response, body []byte) (*http.Response, error) {
		resp.ContentLength = int64(len(body))
		resp.Body = &errAfter{body[:len(body)/2], io.EOF}
		return resp, nil
	},
	// Nothing arrives until the shard timeout has passed.
	"stall": func(r *http.Request, _ *http.Response, _ []byte) (*http.Response, error) {
		select {
		case <-r.Context().Done():
			return nil, r.Context().Err()
		case <-time.After(10 * time.Second):
			return nil, errors.New("stall outlived the test's shard timeout")
		}
	},
	// The connection resets halfway through the body.
	"reset": func(_ *http.Request, resp *http.Response, body []byte) (*http.Response, error) {
		resp.Body = &errAfter{body[:len(body)/2], syscall.ECONNRESET}
		return resp, nil
	},
	// The shard fails the request outright (and, once, a replica serves it).
	"500": func(_ *http.Request, resp *http.Response, _ []byte) (*http.Response, error) {
		resp.StatusCode = http.StatusInternalServerError
		resp.Body = io.NopCloser(strings.NewReader("internal error"))
		resp.ContentLength = int64(len("internal error"))
		resp.Header.Del("Content-Length")
		return resp, nil
	},
}

// TestGateSlabFaults injects each of the four faults into one slab's shard
// answer, then into every one, on both fan-outs. A fault once is retried on
// the next replica, and the answer is exactly what pipeline gives locally;
// a fault everywhere is a classified 502 or 503. No outcome is a 200 with
// a short body.
func TestGateSlabFaults(t *testing.T) {
	urls := []string{codecShard(t, new(atomic.Int64)).URL, codecShard(t, new(atomic.Int64)).URL}
	g := newGateOver(t, urls, func(cfg *gateConfig) {
		cfg.chunkThresholdKiB = 1
		cfg.shardTimeout = 300 * time.Millisecond
	})
	base := g.client.Transport
	f, eb := legacyField(t)
	raw := rawOf(t, f)
	szx, err := codecs.ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	local := pipeline.New(szx, pipeline.Options{Blocks: 2})
	container, err := local.Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := local.Decompress(container)
	if err != nil {
		t.Fatal(err)
	}
	legs := []struct {
		path, target string
		body, want   []byte
	}{
		{"/v1/compress", fmt.Sprintf("/v1/compress?codec=szx&abs=%g&dims=24x20x12", eb), raw, container},
		{"/v1/decompress", "/v1/decompress?codec=szx", container, rawOf(t, decoded)},
	}
	for name, fault := range slabFaults {
		for _, leg := range legs {
			for _, once := range []bool{true, false} {
				what := fmt.Sprintf("%s on %s (once=%v)", name, leg.path, once)
				healthyFirst(g, len(urls))
				ft := &faultTransport{base: base, path: leg.path, fault: fault, once: once}
				g.client.Transport = ft
				w := doGate(t, g, http.MethodPost, leg.target, leg.body)
				switch {
				case w.Code == http.StatusOK && !bytes.Equal(w.Body.Bytes(), leg.want):
					t.Errorf("%s: 200 with %d bytes, want pipeline's %d", what, w.Body.Len(), len(leg.want))
				case w.Code == http.StatusOK && !once:
					t.Errorf("%s: 200 though every answer was spoiled", what)
				case w.Code != http.StatusOK && once:
					t.Errorf("%s: status %d (%s), want 200 from a replica", what, w.Code, w.Body.String())
				case w.Code != http.StatusOK && w.Code != http.StatusBadGateway && w.Code != http.StatusServiceUnavailable:
					t.Errorf("%s: status %d, want 502 or 503", what, w.Code)
				}
			}
		}
	}
	g.client.Transport = base
}
