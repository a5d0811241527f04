package httpkit

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// untouched fails the test if anything reads the body it stands in for.
type untouched struct{ t *testing.T }

func (u untouched) Read([]byte) (int, error) {
	u.t.Error("the body was read")
	return 0, io.EOF
}

// post builds a request whose body has no declared length (the server sees
// Transfer-Encoding: chunked) unless declared >= 0 says otherwise.
func post(target string, body io.Reader, declared int64) *http.Request {
	r := httptest.NewRequest(http.MethodPost, target, io.MultiReader(body))
	r.ContentLength = declared
	return r
}

func status(err error) int {
	w := httptest.NewRecorder()
	RequestError(w, err)
	return w.Code
}

func TestReadBodySized(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
	for _, n := range []int{0, 1, 4096, len(payload)} {
		got, err := ReadBody(post("/", bytes.NewReader(payload[:n]), int64(n)), MaxBody)
		if err != nil || !bytes.Equal(got, payload[:n]) {
			t.Errorf("declared %d: %d bytes, %v", n, len(got), err)
		}
		if cap(got) != n {
			t.Errorf("declared %d: buffer of %d bytes, want exactly the declared length", n, cap(got))
		}
	}
	// A short body is the client's 400 and names the cause.
	_, err := ReadBody(post("/", bytes.NewReader(payload[:100]), 1000), MaxBody)
	if !errors.Is(err, io.ErrUnexpectedEOF) || status(err) != http.StatusBadRequest {
		t.Errorf("short body: %v (status %d), want io.ErrUnexpectedEOF and 400", err, status(err))
	}
	if _, err := ReadBody(post("/", bytes.NewReader(nil), 8), MaxBody); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("empty body under a declared length: %v, want io.ErrUnexpectedEOF", err)
	}
	// Over the limit: 413 before the body is touched.
	_, err = ReadBody(post("/", untouched{t}, 1025), 1024)
	if !errors.Is(err, ErrTooLarge) || status(err) != http.StatusRequestEntityTooLarge {
		t.Errorf("declared over the limit: %v (status %d), want ErrTooLarge and 413", err, status(err))
	}
}

// TestReadBodyGrowsPastFirstAlloc: a body longer than firstAlloc arrives
// whole, its buffer doubling as the bytes do.
func TestReadBodyGrowsPastFirstAlloc(t *testing.T) {
	payload := make([]byte, 2*firstAlloc+firstAlloc/2+3)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	got, err := ReadBody(post("/", bytes.NewReader(payload), int64(len(payload))), MaxBody)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("%d-byte body: got %d bytes, %v", len(payload), len(got), err)
	}
}

// TestReadBodyDeclaredNeverSent: a client that declares 512 MiB, sends
// 1 KiB and goes away gets an error, and costs no more heap than the first
// allocation while it is waited for.
func TestReadBodyDeclaredNeverSent(t *testing.T) {
	r := post("/", bytes.NewReader(make([]byte, 1024)), MaxBody)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBody(r, MaxBody)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > firstAlloc+64<<10 {
		t.Errorf("allocated %d bytes for a 1 KiB body, want at most firstAlloc (%d) and change", grown, firstAlloc)
	}
}

// TestReadBodyUndeclared: Transfer-Encoding: chunked bodies still arrive,
// through the capped read.
func TestReadBodyUndeclared(t *testing.T) {
	payload := bytes.Repeat([]byte("carol"), 1000)
	got, err := ReadBody(post("/", bytes.NewReader(payload), -1), 5000)
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("body at the limit: %d bytes, %v", len(got), err)
	}
	_, err = ReadBody(post("/", bytes.NewReader(payload), -1), 4999)
	if !errors.Is(err, ErrTooLarge) || status(err) != http.StatusRequestEntityTooLarge {
		t.Errorf("body over the limit: %v (status %d), want ErrTooLarge and 413", err, status(err))
	}
}

// TestFieldBodyLengthMustMatchDims: both forms of the field ingest — the
// gate's buffered bytes and the shard's decoded field — refuse a body that
// is longer or shorter than dims= says, before reading it when the length
// was declared.
func TestFieldBodyLengthMustMatchDims(t *testing.T) {
	const nx, ny, nz = 16, 16, 16
	raw := make([]byte, 4*nx*ny*nz+8)
	for i := range raw {
		raw[i] = byte(i)
	}
	exact := raw[:4*nx*ny*nz]
	read := map[string]func(r *http.Request) error{
		"ReadFieldBody": func(r *http.Request) error {
			body, err := ReadFieldBody(r, nx, ny, nz, MaxBody)
			if err == nil && !bytes.Equal(body, exact) {
				t.Error("ReadFieldBody: wrong bytes")
			}
			return err
		},
		"ReadField": func(r *http.Request) error {
			// Reused storage, larger than the field and dirty: every sample is
			// the body's, read in place.
			buf := make([]float32, nx*ny*nz+7)
			for i := range buf {
				buf[i] = float32(math.NaN())
			}
			f, err := ReadField(r, nx, ny, nz, buf)
			if err == nil {
				var back bytes.Buffer
				if werr := f.WriteRaw(&back); werr != nil || !bytes.Equal(back.Bytes(), exact) {
					t.Errorf("ReadField: wrong samples (%v)", werr)
				}
				if &f.Data[0] != &buf[0] {
					t.Error("ReadField: the field is not in the storage it was given")
				}
			}
			return err
		},
	}
	for name, fn := range read {
		for _, declared := range []bool{true, false} {
			length := func(n int) int64 {
				if declared {
					return int64(n)
				}
				return -1
			}
			if err := fn(post("/", bytes.NewReader(exact), length(len(exact)))); err != nil {
				t.Errorf("%s declared=%v: exact body refused: %v", name, declared, err)
			}
			for _, n := range []int{len(exact) + 4, 2 * len(exact), len(exact) - 4, 0} {
				body := bytes.Repeat(exact, 2)[:n]
				var rd io.Reader = bytes.NewReader(body)
				if declared {
					rd = untouched{t}
				}
				err := fn(post("/", rd, length(n)))
				if err == nil || status(err) != http.StatusBadRequest {
					t.Errorf("%s declared=%v: %d-byte body for %d-byte dims: %v (status %d), want 400",
						name, declared, n, len(exact), err, status(err))
				}
			}
		}
		// 413 outranks the mismatch and still reads nothing.
		if err := fn(post("/", untouched{t}, MaxBody+1)); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: oversized declared length: %v, want ErrTooLarge", name, err)
		}
	}
}
