// Command carolserve exposes the compressors and estimators as an HTTP
// service — the "large software pipelines" integration of the paper's
// use case 3, where other components need compression with predictable
// output sizes over a wire protocol.
//
//	carolserve -addr :8080 -max-inflight 64
//
// Endpoints (raw little-endian float32 bodies):
//
//	POST /v1/compress?codec=sz3&rel=1e-3&dims=128x128x64   -> stream
//	POST /v1/compress?codec=sz3&rel=1e-3&stream=1&dims=... -> pipeline container (CPL1),
//	     block-parallel, body streamed as blocks complete; optional workers=N;
//	     X-Carol-Achieved-Ratio arrives as an HTTP trailer
//	POST /v1/compress?codec=sz3&ratio=100&dims=128x128x64  -> stream (fixed-ratio search,
//	     started from the loaded model's predicted bound when -model-dir has one for
//	     the codec and, for szx, zfp and sz3, run on the SECRE surrogate before it compresses;
//	     X-Carol-Resolver says model|search, X-Carol-Compressor-Runs the cost,
//	     X-Carol-Surrogate-Evals the surrogate evaluations that cost stood in for)
//	POST /v1/compress?mode=auto&rel=1e-3&dims=...          -> adaptive codec selection:
//	     every registered codec is scored via its SECRE surrogate, bias-corrected by
//	     the online bandit, and the winner compresses; X-Carol-Codec-Chosen names it,
//	     optional target=R asks for the cheapest codec predicted to reach ratio R;
//	     composes with stream=1 (but not ratio=, which already self-selects the eb)
//	POST /v1/decompress?codec=sz3                          -> raw float32
//	     (CPL1 pipeline containers are auto-detected and decoded block-streaming)
//	POST /v1/estimate?codec=sperr&rel=1e-3&dims=...        -> JSON ratio estimate
//	POST /v1/predict?model=sz3&ratio=50,100&dims=...       -> JSON error-bound predictions
//	GET  /v1/models                                        -> JSON loaded-model listing
//	GET  /v1/codecs                                        -> JSON codec list
//	GET  /v1/selector                                      -> JSON mode=auto bandit state
//	GET  /metrics                                          -> text metrics exposition
//	GET  /debug/vars                                       -> JSON metrics snapshot
//	GET  /healthz                                          -> liveness probe
//	GET  /readyz                                           -> readiness (503 until models load)
//
// With -model-dir pointing at a caroltrain registry, the newest version
// of every model is loaded before traffic is accepted and hot-swapped on
// SIGHUP, or when -registry-watch sees a new publish, without dropping
// in-flight requests (DESIGN.md §12, §17).
//
// The server is hardened for production traffic: read/write/idle
// timeouts, a semaphore-bounded in-flight request limit (503 +
// Retry-After when saturated), panic recovery, per-endpoint request
// metrics, and context-aware graceful shutdown on SIGINT/SIGTERM
// (in-flight requests drain, bounded by -shutdown-timeout).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"time"

	"carol"
	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/fraz"
	"carol/internal/httpkit"
	"carol/internal/obs"
	"carol/internal/pipeline"
	"carol/internal/safedec"
	"carol/internal/secre"
	"carol/internal/selector"
)

func main() {
	cfg := defaultConfig()
	addr := flag.String("addr", ":8080", "listen address")
	flag.StringVar(&cfg.modelDir, "model-dir", cfg.modelDir,
		"caroltrain model registry to warm-load and serve on /v1/predict; SIGHUP hot-reloads")
	flag.IntVar(&cfg.maxInflight, "max-inflight", cfg.maxInflight,
		"maximum concurrently served /v1/ requests; excess get 503 + Retry-After")
	flag.DurationVar(&cfg.registryWatch, "registry-watch", cfg.registryWatch,
		"poll the model registry at this interval and hot-swap on change (0 disables; SIGHUP always works)")
	flag.BoolVar(&cfg.trackEstimatorError, "track-estimator-error", cfg.trackEstimatorError,
		"run the SECRE surrogate alongside rel= compresses and export estimate-vs-actual error gauges")
	flag.Uint64Var(&cfg.selectorSeed, "selector-seed", cfg.selectorSeed,
		"seed for the mode=auto exploration RNG; a fixed seed reproduces the decision sequence")
	flag.Float64Var(&cfg.selectorEpsilon, "selector-epsilon", cfg.selectorEpsilon,
		"mode=auto exploration probability (negative disables exploration)")
	cfg.timeouts.Flags(flag.CommandLine)
	flag.Int64Var(&cfg.decodeLimits.MaxElements, "max-decode-elements", cfg.decodeLimits.MaxElements,
		"maximum samples a /v1/decompress stream may claim (413 beyond)")
	flag.Int64Var(&cfg.decodeLimits.MaxAlloc, "max-decode-alloc", cfg.decodeLimits.MaxAlloc,
		"maximum bytes a single decode-side allocation may claim (413 beyond)")
	flag.Int64Var(&cfg.decodeLimits.MaxCount, "max-decode-count", cfg.decodeLimits.MaxCount,
		"maximum repeated-structure count (chunks, entries) a stream may claim (413 beyond)")
	flag.Parse()
	os.Exit(run(cfg, *addr))
}

// run boots the server: models are warm-loaded before the listener opens.
func run(cfg config, addr string) int {
	s := newServerWith(cfg)
	if s.models != nil {
		// A warm-load failure is not fatal — the server starts and /readyz
		// answers 503 until a reload succeeds.
		if err := s.models.Reload(); err != nil {
			log.Printf("carolserve: warm load: %v", err)
		}
		stopHUP := s.models.watchHUP()
		defer stopHUP()
		if cfg.registryWatch > 0 {
			stopWatch := s.models.watchRegistry(cfg.registryWatch)
			defer stopWatch()
		}
	}
	return s.Run(addr, cfg.timeouts, "", nil)
}

func (s *server) handleCodecs(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(carol.ExtendedCompressors()); err != nil {
		log.Printf("carolserve: codecs encode: %v", err)
	}
}

// readField reads the request's nx × ny × nz field body into storage from
// s.fields, so a warm server allocates none per request (DESIGN.md §22).
// The caller gives it back with releaseField once nothing reads the field.
func (s *server) readField(r *http.Request, nx, ny, nz int) (*field.Field, error) {
	buf := s.fields.Get()
	f, err := httpkit.ReadField(r, nx, ny, nz, *buf)
	if err != nil {
		s.fields.Put(buf)
		return nil, err
	}
	if cap(*buf) >= len(f.Data) {
		s.fieldsReused.Inc()
	} else {
		s.fieldsAllocated.Inc()
	}
	return f, nil
}

// releaseField returns f's storage to s.fields unless it is over 16 MiB, so
// the list pins at most 64 MiB; a larger field allocates every time.
func (s *server) releaseField(f *field.Field) {
	if data := f.Data; cap(data) <= 4<<20 {
		s.fields.Put(&data)
	}
}

// readFieldBody is readField shaped by the dims query parameter.
func (s *server) readFieldBody(r *http.Request) (*field.Field, error) {
	nx, ny, nz, err := httpkit.Dims(r.URL.Query().Get("dims"))
	if err != nil {
		return nil, err
	}
	return s.readField(r, nx, ny, nz)
}

// handleCompress is parse → read field → resolve bound (for ratio= a
// search seeded by the loaded model's prediction, which compresses as it
// goes) → resolve codec → execute (whole stream, or stream=1 container) →
// the shared epilogue in finish.
func (s *server) handleCompress(w http.ResponseWriter, r *http.Request) {
	tr := s.reg.StartTrace("http_compress")
	defer tr.End()
	req, err := httpkit.ParseCompress(r.URL.Query())
	if err != nil {
		httpkit.RequestError(w, err)
		return
	}
	span := tr.StartSpan("parse")
	f, err := s.readField(r, req.Nx, req.Ny, req.Nz)
	span.End()
	if err != nil {
		httpkit.RequestError(w, err)
		return
	}
	// Every reader of f is done when the handler returns (DESIGN.md §22).
	defer s.releaseField(f)
	var eb float64
	var dec *selector.Decision
	codecName := req.Codec
	if !(req.Ratio > 0) {
		if eb, err = req.Bound(f.ValueRange); err != nil {
			httpkit.Error(w, http.StatusBadRequest, "%v", err)
			return
		}
		if codecName, dec, err = req.ResolveCodec(tr, s.selector, f, eb); err != nil {
			httpkit.Error(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	codec, err := codecs.ByName(codecName)
	if err != nil {
		httpkit.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	if dec != nil {
		w.Header().Set("X-Carol-Codec-Chosen", dec.Codec)
		if p := dec.PredictedRatio(); p > 0 {
			w.Header().Set("X-Carol-Predicted-Ratio", strconv.FormatFloat(p, 'g', 6, 64))
		}
	}
	// finish is the one epilogue: the achieved ratio and trace go out (as
	// trailers once a streamed body has been sent), and a mode=auto decision
	// learns what its pick delivered.
	finish := func(actual float64) {
		w.Header().Set("X-Carol-Achieved-Ratio", strconv.FormatFloat(actual, 'g', 6, 64))
		w.Header().Set("X-Carol-Trace", tr.String())
		if dec != nil {
			s.selector.Observe(*dec, actual)
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	var stream []byte
	switch {
	case req.Ratio > 0:
		seed := s.predictBound(tr, codec.Name(), req.Ratio, f)
		span = tr.StartSpan("search")
		// SZx, ZFP and SZ3 searches root-find on their SECRE surrogate and
		// compress where it predicts the target; binding it to the field plus
		// every evaluation is the search's surrogate child span.
		bindStart := time.Now()
		opts := fraz.Options{Seed: seed, Surrogate: codecs.SearchSurrogate(codec.Name(), f)}
		bindTime := time.Since(bindStart)
		res, err := fraz.Search(codec, f, req.Ratio, opts)
		if opts.Surrogate != nil {
			tr.Record("surrogate", bindTime+res.SurrogateTime)
		}
		span.End()
		if err != nil {
			httpkit.CodecError(w, err)
			return
		}
		stream = res.Stream
		w.Header().Set("X-Carol-Compressor-Runs", strconv.Itoa(res.Runs))
		w.Header().Set("X-Carol-Surrogate-Evals", strconv.Itoa(res.SurrogateEvals))
		w.Header().Set("X-Carol-Resolver", res.Resolver())
		finish(res.Achieved)
	case req.Stream:
		compressStreaming(w, tr, pipeline.New(codec, pipeline.Options{Workers: req.Workers}), f, eb, finish)
		return
	default:
		span = tr.StartSpan("codec")
		stream, err = codec.Compress(f, eb)
		span.End()
		if err != nil {
			httpkit.CodecError(w, err)
			return
		}
		actual := compressor.Ratio(f, stream)
		if dec == nil && s.cfg.trackEstimatorError {
			// Online estimator-error tracking (Underwood et al.'s black-box
			// ratio-prediction metric): run the cheap sampled surrogate next to
			// the full run we just paid for, and export the error.
			if sur, serr := codecs.SurrogateByName(codecName); serr == nil {
				span = tr.StartSpan("estimate")
				est, eerr := sur.EstimateRatio(f, eb)
				span.End()
				if eerr == nil {
					secre.RecordOutcome(codecName, est, actual)
					w.Header().Set("X-Carol-Estimated-Ratio", strconv.FormatFloat(est, 'g', 6, 64))
				}
			}
		}
		finish(actual)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(stream)))
	if _, err := w.Write(stream); err != nil {
		log.Printf("carolserve: compress write: %v", err)
	}
}

// countingWriter counts bytes forwarded to the response so the streaming
// path can tell "failed before the first byte" (still able to send a
// status code) from "failed mid-body" (log only), and can compute the
// achieved ratio for the trailer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// compressStreaming serves /v1/compress?stream=1: the pipeline container is
// written to the response as blocks complete, so peak memory holds the
// input field plus a bounded window of compressed blocks — never the whole
// stream. The achieved ratio is only known once the body has been sent, so
// finish's headers travel as HTTP trailers.
func compressStreaming(w http.ResponseWriter, tr *obs.Trace, p *pipeline.Codec, f *field.Field, eb float64, finish func(actual float64)) {
	w.Header().Set("Trailer", "X-Carol-Achieved-Ratio, X-Carol-Trace")
	cw := &countingWriter{w: w}
	span := tr.StartSpan("codec")
	err := p.CompressStream(cw, f, eb)
	span.End()
	if err != nil {
		if cw.n == 0 {
			httpkit.CodecError(w, err)
			return
		}
		// Mid-body failure: the status line is gone; the truncated body is
		// the client's signal (CPL1 frames are length-prefixed).
		log.Printf("carolserve: streaming compress: %v", err)
		return
	}
	finish(float64(f.SizeBytes()) / float64(cw.n))
}

func (s *server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	tr := s.reg.StartTrace("http_decompress")
	defer tr.End()
	codec, err := codecs.ByName(r.URL.Query().Get("codec"))
	if err != nil {
		httpkit.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := httpkit.CheckLength(r, httpkit.MaxBody); err != nil {
		httpkit.RequestError(w, err)
		return
	}
	// Pipeline containers are decoded straight off the request body — block
	// frames are read and decoded in a bounded window, so a large container
	// is never buffered in full. Anything else is a single codec stream and
	// needs the whole slice.
	br := bufio.NewReader(io.LimitReader(r.Body, httpkit.MaxBody))
	var f *field.Field
	if peek, perr := br.Peek(len(pipeline.Magic)); perr == nil && [4]byte(peek) == pipeline.Magic {
		p := pipeline.New(codec, pipeline.Options{Limits: s.cfg.decodeLimits})
		span := tr.StartSpan("codec")
		f, err = p.DecompressStream(br)
		span.End()
	} else {
		span := tr.StartSpan("read")
		var stream []byte
		stream, err = httpkit.ReadSized(br, r.ContentLength, httpkit.MaxBody)
		span.End()
		if err != nil {
			httpkit.Error(w, http.StatusBadRequest, "%v", err)
			return
		}
		span = tr.StartSpan("codec")
		f, err = codec.DecompressLimited(stream, s.cfg.decodeLimits)
		span.End()
	}
	if err != nil {
		// Limit rejections are the client asking for more than this server
		// will allocate (413: shrink it); truncation/corruption means the
		// stream itself is bad (422: fix it).
		if errors.Is(err, safedec.ErrLimit) {
			httpkit.Error(w, http.StatusRequestEntityTooLarge, "%v", err)
			return
		}
		httpkit.Error(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(f.SizeBytes()))
	w.Header().Set("X-Carol-Dims", fmt.Sprintf("%dx%dx%d", f.Nx, f.Ny, f.Nz))
	w.Header().Set("X-Carol-Trace", tr.String())
	if err := f.WriteRaw(w); err != nil {
		log.Printf("carolserve: decompress write: %v", err)
	}
}

func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	tr := s.reg.StartTrace("http_estimate")
	defer tr.End()
	q := r.URL.Query()
	sur, err := codecs.SurrogateByName(q.Get("codec"))
	if err != nil {
		httpkit.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	rel, err := httpkit.Positive(q, "rel")
	if err != nil || !(rel > 0) {
		httpkit.Error(w, http.StatusBadRequest, "bad rel")
		return
	}
	span := tr.StartSpan("parse")
	f, err := s.readFieldBody(r)
	span.End()
	if err != nil {
		httpkit.RequestError(w, err)
		return
	}
	defer s.releaseField(f)
	span = tr.StartSpan("estimate")
	ratio, err := sur.EstimateRatio(f, compressor.AbsBound(f, rel))
	span.End()
	if err != nil {
		httpkit.CodecError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Carol-Trace", tr.String())
	if err := json.NewEncoder(w).Encode(map[string]float64{"estimated_ratio": ratio}); err != nil {
		log.Printf("carolserve: estimate encode: %v", err)
	}
}
