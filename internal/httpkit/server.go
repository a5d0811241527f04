// Package httpkit is the one serving kit carolserve and carolgate share:
// the hardened middleware chain and observability endpoints, the bounded
// request-body reads, the listen → serve → signal → drain lifecycle, and
// the /v1/compress request resolver (compress.go). The binaries differ only
// in what New and Run take as arguments.
package httpkit

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"carol/internal/obs"
	"carol/internal/selector"
)

// Timeouts are the http.Server windows plus the shutdown grace period.
type Timeouts struct {
	Read, ReadHeader, Write, Idle, Shutdown time.Duration
}

// DefaultTimeouts returns the production posture: generous read/write
// windows (bodies run to MaxBody), bounded everything else.
func DefaultTimeouts() Timeouts {
	return Timeouts{
		Read:       5 * time.Minute,
		ReadHeader: 10 * time.Second,
		Write:      10 * time.Minute,
		Idle:       2 * time.Minute,
		Shutdown:   15 * time.Second,
	}
}

// Flags registers the five timeout flags on fs.
func (t *Timeouts) Flags(fs *flag.FlagSet) {
	fs.DurationVar(&t.Read, "read-timeout", t.Read, "full-request read timeout")
	fs.DurationVar(&t.ReadHeader, "read-header-timeout", t.ReadHeader, "request-header read timeout")
	fs.DurationVar(&t.Write, "write-timeout", t.Write, "response write timeout")
	fs.DurationVar(&t.Idle, "idle-timeout", t.Idle, "keep-alive idle timeout")
	fs.DurationVar(&t.Shutdown, "shutdown-timeout", t.Shutdown,
		"grace period for draining in-flight work on SIGINT/SIGTERM")
}

// Server is the handler chain
//
//	per-endpoint metrics → panic recovery → in-flight limit → mux
//
// over obs.Default. Metrics sit outermost so a recovered panic is recorded
// under its real 500 status; recovery sits above the limit so the
// semaphore's deferred release still runs on unwind. The limit applies only
// to /v1/ endpoints, so /metrics, /debug/vars and /healthz stay reachable
// while the server is saturated — exactly when observability matters most.
type Server struct {
	name, prefix string
	mux          *http.ServeMux
	// labels maps every registered path to its metric label; prefixes
	// lists the subtree paths (trailing slash) among them.
	labels   map[string]string
	prefixes []string
	sem      chan struct{}
	handler  http.Handler

	inflight  *obs.Gauge
	throttled *obs.Counter
	panics    *obs.Counter
}

// New builds a server with /metrics, /debug/vars, /healthz and /v1/selector
// registered. name prefixes log lines ("carolserve"), prefix the middleware
// metrics ("http" → http_requests_total), and maxInflight bounds
// concurrently served /v1/ requests.
func New(name, prefix string, maxInflight int, sel *selector.Selector) *Server {
	if maxInflight < 1 {
		maxInflight = 1
	}
	s := &Server{
		name:      name,
		prefix:    prefix,
		mux:       http.NewServeMux(),
		labels:    map[string]string{},
		sem:       make(chan struct{}, maxInflight),
		inflight:  obs.Default.Gauge(prefix + "_inflight_requests"),
		throttled: obs.Default.Counter(prefix + "_throttled_total"),
		panics:    obs.Default.Counter(prefix + "_panics_total"),
	}
	s.handler = s.measure(s.recoverPanics(s.limit(s.mux)))
	s.Handle("GET /metrics", s.doc(func(w http.ResponseWriter) error {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		return obs.Default.WriteText(w)
	}))
	s.Handle("GET /debug/vars", s.doc(func(w http.ResponseWriter) error {
		w.Header().Set("Content-Type", "application/json")
		return obs.Default.WriteJSON(w)
	}))
	// The mode=auto selector: its candidate set and counters. A pick is a
	// pure function of (field, bound, target), so there is no state to show.
	s.Handle("GET /v1/selector", s.doc(func(w http.ResponseWriter) error {
		w.Header().Set("Content-Type", "application/json")
		return json.NewEncoder(w).Encode(sel.Stats())
	}))
	s.Handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := w.Write([]byte("ok\n")); err != nil {
			log.Printf("%s: healthz write: %v", s.name, err)
		}
	})
	return s
}

// Handle registers h on the mux under pattern — a path, optionally
// method-qualified ("POST /v1/compress": other methods get 405) — and the
// path as a known metric label: an exact path labels as itself, a subtree
// ("/v1/jobs/") labels every path under it as path+"{id}".
func (s *Server) Handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, h)
	path := pattern[strings.IndexByte(pattern, ' ')+1:]
	s.labels[path] = path
	if strings.HasSuffix(path, "/") {
		s.labels[path] = path + "{id}"
		s.prefixes = append(s.prefixes, path)
	}
}

// doc wraps a handler that writes one document.
func (s *Server) doc(write func(http.ResponseWriter) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := write(w); err != nil {
			log.Printf("%s: %s write: %v", s.name, r.URL.Path, err)
		}
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Label maps a request path to a bounded metric label: the registered
// route serving it, "other" for everything else (unbounded label
// cardinality would let a URL scanner grow the registry without limit).
func (s *Server) Label(path string) string {
	if l, ok := s.labels[path]; ok {
		return l
	}
	for _, p := range s.prefixes {
		if strings.HasPrefix(path, p) {
			return s.labels[p]
		}
	}
	return "other"
}

// statusRecorder captures the response status for the metrics middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	if !sr.wrote {
		sr.status = code
		sr.wrote = true
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if !sr.wrote {
		sr.status = http.StatusOK
		sr.wrote = true
	}
	return sr.ResponseWriter.Write(p)
}

// limit bounds in-flight /v1/ requests with a counting semaphore. A full
// semaphore answers 503 with Retry-After instead of queueing: under
// sustained overload, shedding load early keeps tail latency bounded for
// the requests actually admitted.
func (s *Server) limit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			next.ServeHTTP(w, r)
		default:
			s.throttled.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, s.name+" at capacity", http.StatusServiceUnavailable)
		}
	})
}

// measure records per-endpoint request counters and latency histograms,
// plus the live in-flight gauge.
func (s *Server) measure(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := s.Label(r.URL.Path)
		hist := obs.Default.Histogram(obs.Label(s.prefix+"_request_seconds", "endpoint", ep), obs.LatencyBuckets())
		s.inflight.Add(1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			hist.ObserveSince(start)
			s.inflight.Add(-1)
			status := rec.status
			if !rec.wrote {
				status = http.StatusOK
			}
			obs.Default.Counter(obs.Label(s.prefix+"_requests_total",
				"endpoint", ep, "code", strconv.Itoa(status))).Inc()
		}()
		next.ServeHTTP(rec, r)
	})
}

// recoverPanics converts a handler panic into a 500 (when nothing has
// been written yet) instead of tearing down the connection, and counts it.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec, _ := w.(*statusRecorder)
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				log.Printf("%s: panic serving %s %s: %v", s.name, r.Method, r.URL.Path, p)
				if rec == nil || !rec.wrote {
					http.Error(w, "internal error", http.StatusInternalServerError)
				}
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Run owns the process lifecycle so every exit path is explicit and
// checked: listen and serve failures report and return non-zero; SIGINT or
// SIGTERM drains in-flight requests, then calls drain (nil to skip) under
// the same t.Shutdown deadline, and returns 0 when both finish clean.
// detail is appended to the "listening on" log line.
func (s *Server) Run(addr string, t Timeouts, detail string, drain func(context.Context) error) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("%s: listen: %v", s.name, err)
		return 1
	}
	srv := &http.Server{
		Handler:           s,
		ReadTimeout:       t.Read,
		ReadHeaderTimeout: t.ReadHeader,
		WriteTimeout:      t.Write,
		IdleTimeout:       t.Idle,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("%s listening on %s%s", s.name, ln.Addr(), detail)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// Serve only returns before shutdown on listener/accept failure.
		log.Printf("%s: serve: %v", s.name, err)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	log.Printf("%s: signal received, draining (up to %v)", s.name, t.Shutdown)
	sctx, cancel := context.WithTimeout(context.Background(), t.Shutdown)
	defer cancel()
	code := 0
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("%s: graceful shutdown: %v; forcing close", s.name, err)
		if cerr := srv.Close(); cerr != nil {
			log.Printf("%s: close: %v", s.name, cerr)
		}
		code = 1
	} else if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		log.Printf("%s: serve returned %v after shutdown", s.name, err)
		code = 1
	}
	// HTTP is drained (or abandoned); now the background work, so accepted
	// jobs are not silently lost.
	if drain != nil {
		if err := drain(sctx); err != nil {
			log.Printf("%s: drain: %v", s.name, err)
			code = 1
		}
	}
	log.Printf("%s: shutdown complete", s.name)
	return code
}
