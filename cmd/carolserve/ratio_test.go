package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/features"
	"carol/internal/field"
	"carol/internal/fraz"
	"carol/internal/model"
	"carol/internal/obs"
	"carol/internal/registry"
	"carol/internal/rf"
	"carol/internal/trainset"
)

// publishFieldModel publishes, under name, a model for the named codec
// trained on f's own ratio curve, so its predictions for f are good seeds.
func publishFieldModel(t testing.TB, dir, name, codecName string, f *field.Field) {
	t.Helper()
	codec, err := codecs.ByName(codecName)
	if err != nil {
		t.Fatal(err)
	}
	var set trainset.Set
	feat := features.ExtractParallel(f, features.ParallelOptions{})
	for _, rel := range trainset.GeometricBounds(1e-5, 0.3, 40) {
		stream, err := codec.Compress(f, compressor.AbsBound(f, rel))
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Add(trainset.Sample{Features: feat, Ratio: compressor.Ratio(f, stream), RelEB: rel}); err != nil {
			t.Fatal(err)
		}
	}
	X, y := set.Matrix()
	cfg := rf.DefaultConfig()
	cfg.NEstimators = 8
	cfg.Seed = 1
	forest, err := rf.Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := &model.Artifact{Codec: codecName, Schema: model.CanonicalSchema(), Regressor: forest}
	buf, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(name, buf); err != nil {
		t.Fatal(err)
	}
}

// ratioReply is what the ratio= tests read off a response.
type ratioReply struct {
	body     []byte
	runs     int
	evals    string // X-Carol-Surrogate-Evals, as sent
	resolver string
	trace    string
}

func postRatio(t testing.TB, h http.Handler, query string, body []byte) ratioReply {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compress?"+query, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", query, rec.Code, rec.Body.String())
	}
	runs, err := strconv.Atoi(rec.Header().Get("X-Carol-Compressor-Runs"))
	if err != nil || runs < 1 || runs > 16 {
		t.Fatalf("%s: X-Carol-Compressor-Runs %q", query, rec.Header().Get("X-Carol-Compressor-Runs"))
	}
	return ratioReply{rec.Body.Bytes(), runs, rec.Header().Get("X-Carol-Surrogate-Evals"), rec.Header().Get("X-Carol-Resolver"), rec.Header().Get("X-Carol-Trace")}
}

// TestRatioResolver: with a published model for the codec the search is
// seeded by it (never costlier than the unseeded server on the same body,
// and the same bytes on repeat); without one it is the plain search.
func TestRatioResolver(t *testing.T) {
	f, buf := testBody(t)
	body := buf.Bytes()
	dir := t.TempDir()
	// Published under another name: the pick goes by the artifact's codec.
	publishFieldModel(t, dir, "szx-own", "szx", f)
	seeded := modelServer(t, dir)
	plain := newServerWith(defaultConfig())

	for _, target := range []string{"3", "8", "20"} {
		query := "codec=szx&dims=24x24x8&ratio=" + target
		got := postRatio(t, seeded, query, body)
		if got.resolver != fraz.ResolverModel {
			t.Fatalf("ratio=%s with a model: X-Carol-Resolver %q", target, got.resolver)
		}
		for _, stage := range []string{"features=", "predict=", "surrogate=", "search="} {
			if !strings.Contains(got.trace, stage) {
				t.Errorf("ratio=%s: X-Carol-Trace %q lacks the %s span", target, got.trace, stage)
			}
		}
		// The SZx search solves on its surrogate; what it says still names
		// what seeded it, and the runs header counts compressions only.
		if evals, err := strconv.Atoi(got.evals); err != nil || evals < 1 || got.runs > 2 {
			t.Errorf("ratio=%s: X-Carol-Surrogate-Evals %q with %d compressor runs", target, got.evals, got.runs)
		}
		base := postRatio(t, plain, query, body)
		if base.resolver != fraz.ResolverSearch || strings.Contains(base.trace, "predict=") {
			t.Fatalf("ratio=%s without -model-dir: X-Carol-Resolver %q, trace %q", target, base.resolver, base.trace)
		}
		if got.runs > base.runs {
			t.Errorf("ratio=%s: %d runs with the model, %d without", target, got.runs, base.runs)
		}
		if again := postRatio(t, seeded, query, body); !bytes.Equal(again.body, got.body) || again.runs != got.runs {
			t.Errorf("ratio=%s: the repeat differs (%d vs %d runs, %d vs %d bytes)",
				target, again.runs, got.runs, len(again.body), len(got.body))
		}
	}
	// No model was trained for sz3: same server, unseeded search, which
	// still root-finds on SZ3's entropy-sized surrogate.
	got := postRatio(t, seeded, "codec=sz3&dims=24x24x8&ratio=8", body)
	if got.resolver != fraz.ResolverSearch {
		t.Fatalf("sz3 on an szx-only registry: X-Carol-Resolver %q", got.resolver)
	}
	if evals, err := strconv.Atoi(got.evals); err != nil || evals < 1 || !strings.Contains(got.trace, "surrogate=") {
		t.Errorf("sz3: X-Carol-Surrogate-Evals %q, trace %q", got.evals, got.trace)
	}
}

// TestRatioExtractsOnce: a seeded ratio= request pays for one feature
// pass, however many compressor runs its search makes.
func TestRatioExtractsOnce(t *testing.T) {
	f, buf := testBody(t)
	models := t.TempDir()
	publishFieldModel(t, models, "sz3", "sz3", f)
	s := modelServer(t, models)
	extractions := obs.Default.Counter("features_extract_calls_total")
	before := extractions.Value()
	// At 60 the tiny model is off by enough for the search to correct it.
	got := postRatio(t, s, "codec=sz3&dims=24x24x8&ratio=60", buf.Bytes())
	if got.runs < 2 {
		t.Fatalf("ratio=60 resolved in %d run: the search never corrected the seed", got.runs)
	}
	if n := extractions.Value() - before; n != 1 {
		t.Errorf("features extracted %d times for one ratio= request, want 1", n)
	}
}

// TestRatioHotSwapUnderLoad hot-swaps the model while ratio= requests are
// in flight: each request predicts from the one generation it picked up
// (run under -race -count=10).
func TestRatioHotSwapUnderLoad(t *testing.T) {
	dir := t.TempDir()
	publishTestModel(t, dir, 1)
	s := modelServer(t, dir)
	_, buf := testBody(t)
	body := buf.Bytes()

	const clients = 4
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
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
					"/v1/compress?codec=szx&ratio=4&dims=24x24x8", bytes.NewReader(body)))
				if _, err := io.Copy(io.Discard, rec.Body); err != nil {
					errs <- err
					return
				}
				if rec.Code != http.StatusOK || rec.Header().Get("X-Carol-Resolver") != fraz.ResolverModel {
					errs <- fmt.Errorf("status %d, X-Carol-Resolver %q", rec.Code, rec.Header().Get("X-Carol-Resolver"))
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
}
