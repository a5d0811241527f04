package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"carol/internal/codecs"
	"carol/internal/dataset"
	"carol/internal/field"
	"carol/internal/obs"
)

// poolBody is one field body and the dims= it is posted with.
type poolBody struct {
	dims string
	raw  []byte
}

// poolBodies are two fields of one dims and one of smaller dims, which
// fits in either's storage.
func poolBodies(t *testing.T) []poolBody {
	t.Helper()
	var out []poolBody
	for _, c := range []struct {
		name       string
		nx, ny, nz int
	}{{"density", 24, 24, 8}, {"velocityx", 24, 24, 8}, {"density", 16, 12, 4}} {
		f, err := dataset.Generate("miranda", c.name, dataset.Options{Nx: c.nx, Ny: c.ny, Nz: c.nz})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.WriteRaw(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, poolBody{fmt.Sprintf("%dx%dx%d", c.nx, c.ny, c.nz), buf.Bytes()})
	}
	return out
}

// poolQueries are the field-reading requests, dims= still to append.
var poolQueries = []string{
	"/v1/compress?codec=szx&ratio=3",
	"/v1/compress?codec=zfp&rel=1e-3",
	"/v1/compress?codec=sz3&rel=1e-3&stream=1&workers=2",
	"/v1/compress?mode=auto&rel=1e-3",
	"/v1/estimate?codec=sperr&rel=1e-3",
}

// freshAnswer is what a server that has served nothing returns for target.
func freshAnswer(t *testing.T, target string, body []byte) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	newServerWith(defaultConfig()).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("fresh %s: status %d: %s", target, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// TestFieldStorageReuseUnderConcurrency: four clients at once alternate two
// fields of one dims and one of other dims over ratio=, rel=, stream=1,
// mode=auto and /v1/estimate, each good request followed by a body that
// ends early (a 400 that dirties pooled storage mid-read). Storage passes
// from request to request, yet every answer is byte for byte what a fresh
// server returns for that body; a mode=auto answer is the chosen codec's
// rel= stream, whichever codec the selector picked.
func TestFieldStorageReuseUnderConcurrency(t *testing.T) {
	bodies := poolBodies(t)
	want := map[string][]byte{}
	for bi, b := range bodies {
		for _, q := range poolQueries {
			target := q + "&dims=" + b.dims
			if q == "/v1/compress?mode=auto&rel=1e-3" {
				for _, name := range codecs.ExtendedNames {
					want[fmt.Sprintf("body %d %s@%s", bi, target, name)] = freshAnswer(t, "/v1/compress?codec="+name+"&rel=1e-3&dims="+b.dims, b.raw)
				}
				continue
			}
			want[fmt.Sprintf("body %d %s", bi, target)] = freshAnswer(t, target, b.raw)
		}
	}

	srv := httptest.NewServer(newServer())
	defer srv.Close()
	reused := obs.Default.Counter(`http_field_storage_total{result="reused"}`)
	reusedBefore := reused.Value()
	const clients, rounds = 4, 3
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- func() error {
				for i := 0; i < rounds*len(bodies)*len(poolQueries); i++ {
					bi := (c + i) % len(bodies)
					b := bodies[bi]
					target := poolQueries[(c+i/len(bodies))%len(poolQueries)] + "&dims=" + b.dims
					resp, err := http.Post(srv.URL+target, "application/octet-stream", bytes.NewReader(b.raw))
					if err != nil {
						return err
					}
					got, err := io.ReadAll(resp.Body)
					_ = resp.Body.Close()
					if err != nil {
						return err
					}
					key := fmt.Sprintf("body %d %s", bi, target)
					if chosen := resp.Header.Get("X-Carol-Codec-Chosen"); chosen != "" {
						key += "@" + chosen
					}
					if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want[key]) {
						return fmt.Errorf("client %d, %s: status %d, %d bytes differing from a fresh server's %d", c, key, resp.StatusCode, len(got), len(want[key]))
					}
					// No declared length, so the server reads the short body
					// into pooled storage before it finds the end.
					short := io.MultiReader(bytes.NewReader(b.raw[:len(b.raw)-6]))
					resp, err = http.Post(srv.URL+target, "application/octet-stream", short)
					if err != nil {
						return err
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close()
					if resp.StatusCode != http.StatusBadRequest {
						return fmt.Errorf("client %d, %s: short body answered %d, want 400", c, target, resp.StatusCode)
					}
				}
				return nil
			}()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if reused.Value() == reusedBefore {
		t.Error("no request read its field into reused storage")
	}
}

// TestFieldStorageRelease: releaseField hands a field's storage to the next
// readField, and storage over 16 MiB is dropped. The pooled object is the
// sample storage itself, so it reaches no other memory of the request.
func TestFieldStorageRelease(t *testing.T) {
	s := newServerWith(defaultConfig())
	small := field.New("small", 8, 8, 8)
	s.releaseField(small)
	if got := s.fields.Get(); len(*got) != small.Len() || &(*got)[0] != &small.Data[0] {
		t.Errorf("the storage released is not the storage lent next (%d samples)", len(*got))
	}
	big := field.New("big", 4<<20+1, 1, 1)
	s.releaseField(big)
	if got := s.fields.Get(); *got != nil {
		t.Errorf("storage of %d samples was pooled, cap %d", cap(*got), 4<<20)
	}
}
