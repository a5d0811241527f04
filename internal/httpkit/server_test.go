package httpkit

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"carol/internal/selector"
)

// prefixes are the two parameterisations in production: carolserve's and
// carolgate's. Every middleware test runs once per prefix.
var prefixes = []struct{ name, prefix string }{
	{"carolserve", "http"},
	{"carolgate", "gate"},
}

func newTestServer(t *testing.T, name, prefix string, maxInflight int) *Server {
	t.Helper()
	sel, err := selector.New(selector.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return New(name, prefix, maxInflight, sel)
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// TestThrottle: with maxInflight=2 and two requests parked in a handler,
// the third /v1/ request gets 503 + Retry-After and is counted, while
// /metrics and /healthz stay reachable at saturation.
func TestThrottle(t *testing.T) {
	for _, p := range prefixes {
		t.Run(p.prefix, func(t *testing.T) {
			s := newTestServer(t, p.name, p.prefix, 2)
			entered := make(chan struct{}, 2)
			release := make(chan struct{})
			s.Handle("/v1/park", func(w http.ResponseWriter, r *http.Request) {
				entered <- struct{}{}
				<-release
			})
			srv := httptest.NewServer(s)
			defer srv.Close()

			var parked sync.WaitGroup
			for i := 0; i < 2; i++ {
				parked.Add(1)
				go func() {
					defer parked.Done()
					resp, err := http.Get(srv.URL + "/v1/park")
					if err != nil {
						t.Errorf("parked request: %v", err)
						return
					}
					_ = resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("parked request finished with %d", resp.StatusCode)
					}
				}()
			}
			for i := 0; i < 2; i++ {
				select {
				case <-entered:
				case <-time.After(5 * time.Second):
					t.Fatal("blocked requests never entered the handler")
				}
			}

			before := s.throttled.Value()
			resp, _ := get(t, srv.URL+"/v1/park")
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("saturated request: status %d, want 503", resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
			if got := s.throttled.Value(); got != before+1 {
				t.Fatalf("throttled counter %d, want %d", got, before+1)
			}
			if resp, body := get(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK || body != "ok\n" {
				t.Fatalf("healthz at saturation: %d %q", resp.StatusCode, body)
			}
			resp, text := get(t, srv.URL+"/metrics")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("metrics at saturation: %d", resp.StatusCode)
			}
			for _, want := range []string{
				p.prefix + "_throttled_total",
				p.prefix + "_inflight_requests",
				fmt.Sprintf(`%s_requests_total{endpoint="/v1/park",code="503"}`, p.prefix),
			} {
				if !strings.Contains(text, want) {
					t.Errorf("/metrics missing %q", want)
				}
			}
			close(release)
			parked.Wait()
		})
	}
}

// TestPanicRecovery: a panic before the first write becomes a 500 recorded
// under its real status; a panic after the first write keeps the status
// already sent; both are counted, release their semaphore slot, and leave
// the server alive.
func TestPanicRecovery(t *testing.T) {
	for _, p := range prefixes {
		t.Run(p.prefix, func(t *testing.T) {
			s := newTestServer(t, p.name, p.prefix, 1)
			s.Handle("/v1/early", func(w http.ResponseWriter, r *http.Request) { panic("kaboom") })
			s.Handle("/v1/late", func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusAccepted)
				panic("kaboom")
			})
			srv := httptest.NewServer(s)
			defer srv.Close()

			before := s.panics.Value()
			if resp, _ := get(t, srv.URL+"/v1/early"); resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("early panic: status %d, want 500", resp.StatusCode)
			}
			if resp, _ := get(t, srv.URL+"/v1/late"); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("late panic: status %d, want the 202 already written", resp.StatusCode)
			}
			if got := s.panics.Value(); got != before+2 {
				t.Fatalf("panic counter %d, want %d", got, before+2)
			}
			// maxInflight is 1: a slot leaked on unwind would throttle this.
			if resp, _ := get(t, srv.URL+"/v1/selector"); resp.StatusCode != http.StatusOK {
				t.Fatalf("after panics: /v1/selector status %d (semaphore leaked?)", resp.StatusCode)
			}
			_, text := get(t, srv.URL+"/metrics")
			for _, want := range []string{
				fmt.Sprintf(`%s_requests_total{endpoint="/v1/early",code="500"}`, p.prefix),
				fmt.Sprintf(`%s_requests_total{endpoint="/v1/late",code="202"}`, p.prefix),
				p.prefix + "_panics_total",
			} {
				if !strings.Contains(text, want) {
					t.Errorf("/metrics missing %q", want)
				}
			}
		})
	}
}

// TestLabelBounded: registered routes label as themselves, a subtree
// pattern collapses its ids, and unknown paths — whatever a URL scanner
// sends — share the one label "other".
func TestLabelBounded(t *testing.T) {
	for _, p := range prefixes {
		t.Run(p.prefix, func(t *testing.T) {
			s := newTestServer(t, p.name, p.prefix, 4)
			s.Handle("/v1/things/", func(w http.ResponseWriter, r *http.Request) {})
			s.Handle("/v1/things/new", func(w http.ResponseWriter, r *http.Request) {})
			for path, want := range map[string]string{
				"/metrics":           "/metrics",
				"/v1/selector":       "/v1/selector",
				"/v1/things/new":     "/v1/things/new",
				"/v1/things/abc123":  "/v1/things/{id}",
				"/v1/things/a/b":     "/v1/things/{id}",
				"/v1/whatever":       "other",
				"/.git/config":       "other",
				"/v1/selector/extra": "other",
			} {
				if got := s.Label(path); got != want {
					t.Errorf("Label(%q) = %q, want %q", path, got, want)
				}
			}
			srv := httptest.NewServer(s)
			defer srv.Close()
			for _, path := range []string{"/wp-login.php", "/v1/nope", "/a/b/c"} {
				if resp, _ := get(t, srv.URL+path); resp.StatusCode != http.StatusNotFound {
					t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
				}
			}
			_, text := get(t, srv.URL+"/metrics")
			if want := fmt.Sprintf(`%s_requests_total{endpoint="other",code="404"}`, p.prefix); !strings.Contains(text, want) {
				t.Errorf("/metrics missing %q", want)
			}
			for _, leaked := range []string{"wp-login", "/v1/nope"} {
				if strings.Contains(text, leaked) {
					t.Errorf("/metrics carries request-derived label %q", leaked)
				}
			}
		})
	}
}

func TestObservabilityEndpointsAreGETOnly(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, "carolserve", "http", 4))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/vars", "/v1/selector"} {
		resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
	}
}

// syncBuffer is a log sink safe to read while Run's goroutines write.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// TestRunDrainsOnSIGTERM drives the whole lifecycle: Run logs the
// "listening on" line bench/procs.go and the smoke scripts wait for, a
// request parked in a handler survives SIGTERM and gets its 200, the drain
// hook runs after HTTP has drained, and Run returns 0.
func TestRunDrainsOnSIGTERM(t *testing.T) {
	var logs syncBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)

	s := newTestServer(t, "carolgate", "gate", 4)
	entered := make(chan struct{})
	release := make(chan struct{})
	var handled, drained atomic.Bool
	s.Handle("/v1/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		handled.Store(true)
	})
	exit := make(chan int, 1)
	go func() {
		exit <- s.Run("127.0.0.1:0", Timeouts{Shutdown: 10 * time.Second}, ", 3 shards on the ring",
			func(context.Context) error {
				drained.Store(handled.Load()) // HTTP must already be drained
				return nil
			})
	}()
	listenRE := regexp.MustCompile(`carolgate listening on (\S+?), 3 shards on the ring`)
	var addr string
	for deadline := time.Now().Add(5 * time.Second); addr == ""; time.Sleep(5 * time.Millisecond) {
		if m := listenRE.FindStringSubmatch(logs.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no listening line in log:\n%s", logs.String())
		}
	}

	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/v1/slow")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		clientErr <- err
	}()
	<-entered
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Let Shutdown stop accepting, then let the parked request finish.
	for !strings.Contains(logs.String(), "signal received") {
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	if err := <-clientErr; err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("Run returned %d, want 0\n%s", code, logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never returned after SIGTERM")
	}
	if !drained.Load() {
		t.Fatal("drain hook did not run after the in-flight request finished")
	}
}

func TestRunListenFailure(t *testing.T) {
	var logs syncBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	s := newTestServer(t, "carolserve", "http", 1)
	if code := s.Run("256.0.0.1:bad", DefaultTimeouts(), "", nil); code != 1 {
		t.Fatalf("Run on an unusable address returned %d, want 1", code)
	}
	if !strings.Contains(logs.String(), "carolserve: listen:") {
		t.Fatalf("listen failure not logged:\n%s", logs.String())
	}
}
