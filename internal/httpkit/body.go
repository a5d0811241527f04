package httpkit

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/safedec"
)

// MaxBody caps request bodies (512 MiB of float32 samples). The gate uses
// the same cap so it never accepts what a shard would refuse.
const MaxBody = 512 << 20

// ErrTooLarge marks a request rejected for size, mapped to 413 rather
// than 400 so clients can tell "shrink it" from "fix it".
var ErrTooLarge = errors.New("request body too large")

// Error writes a formatted plain-text error response.
func Error(w http.ResponseWriter, code int, format string, args ...interface{}) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// RequestError maps a query/body parse failure to its status code: 413 for
// ErrTooLarge, 400 for everything else.
func RequestError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrTooLarge) {
		Error(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	Error(w, http.StatusBadRequest, "%v", err)
}

// CodecError maps a failed compression or estimate to its status code: 400
// for a field holding NaN or ±Inf (compressor.ErrNonFinite), the client's
// data that every replica would refuse alike, so the gate relays it instead
// of retrying; 500 for everything else.
func CodecError(w http.ResponseWriter, err error) {
	if errors.Is(err, compressor.ErrNonFinite) {
		Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	Error(w, http.StatusInternalServerError, "%v", err)
}

// CheckLength refuses a declared Content-Length over limit before a byte
// of the body is read.
func CheckLength(r *http.Request, limit int64) error {
	return checkDeclared(r.ContentLength, limit)
}

func checkDeclared(declared, limit int64) error {
	if declared > limit {
		return fmt.Errorf("%w: content length %d exceeds %d bytes", ErrTooLarge, declared, limit)
	}
	return nil
}

// ReadSized buffers a body of at most limit bytes whose peer declared its
// length (-1: none). A declared body is read by safedec.ReadN, whose buffer
// grows only as the bytes arrive, and a body that ends early is an error
// wrapping io.ErrUnexpectedEOF; an undeclared one is read to its end, the
// read itself capped at limit. It is the one body ingest of both tiers:
// client requests (ReadBody) and the gate's shard answers.
func ReadSized(rd io.Reader, declared, limit int64) ([]byte, error) {
	if err := checkDeclared(declared, limit); err != nil {
		return nil, err
	}
	if declared < 0 {
		body, err := io.ReadAll(io.LimitReader(rd, limit+1))
		if err != nil {
			return nil, err
		}
		if int64(len(body)) > limit {
			return nil, fmt.Errorf("%w: body exceeds %d bytes", ErrTooLarge, limit)
		}
		return body, nil
	}
	body, err := safedec.ReadN(rd, declared)
	if err != nil {
		return nil, fmt.Errorf("body: %w", err)
	}
	return body, nil
}

// ReadBody buffers a request body of at most limit bytes.
func ReadBody(r *http.Request, limit int64) ([]byte, error) {
	return ReadSized(r.Body, r.ContentLength, limit)
}

// Dims parses a dims= value (NXxNYxNZ) and refuses fields over MaxBody.
func Dims(s string) (nx, ny, nz int, err error) {
	nx, ny, nz, err = field.ParseDims(s)
	if err != nil {
		return 0, 0, 0, err
	}
	// Per-dimension caps keep the product free of int64 overflow before the
	// total-size check.
	const maxDim = 1 << 20
	if nx > maxDim || ny > maxDim || nz > maxDim || int64(nx)*int64(ny)*int64(nz)*4 > MaxBody {
		return 0, 0, 0, fmt.Errorf("%w: %dx%dx%d float32 field exceeds %d bytes", ErrTooLarge, nx, ny, nz, MaxBody)
	}
	return nx, ny, nz, nil
}

// fieldBytes is what can be refused before a byte of an nx × ny × nz field
// body is read: a declared length over limit (413), or one that disagrees
// with the dims (400) — a longer body would lose its tail silently, and the
// gate's slab slicing needs the two to agree. It returns the dims' length.
func fieldBytes(r *http.Request, nx, ny, nz int, limit int64) (int64, error) {
	want := 4 * int64(nx) * int64(ny) * int64(nz)
	if err := CheckLength(r, limit); err != nil {
		return 0, err
	}
	if r.ContentLength >= 0 && r.ContentLength != want {
		return 0, fmt.Errorf("body is %d bytes, dims=%dx%dx%d needs %d", r.ContentLength, nx, ny, nz, want)
	}
	return want, nil
}

// fieldEnd refuses bytes after the want a field body of undeclared length
// has been read for; a declared one was held to its dims by fieldBytes.
func fieldEnd(r *http.Request, want int64) error {
	if r.ContentLength >= 0 {
		return nil
	}
	var next [1]byte
	if n, _ := io.ReadFull(r.Body, next[:]); n > 0 {
		return fmt.Errorf("body is longer than the %d bytes its dims= needs", want)
	}
	return nil
}

// ReadFieldBody buffers, undecoded, the raw float32 body of a request
// whose dims (from Dims) are nx × ny × nz, and refuses any other length.
func ReadFieldBody(r *http.Request, nx, ny, nz int, limit int64) ([]byte, error) {
	want, err := fieldBytes(r, nx, ny, nz, limit)
	if err != nil {
		return nil, err
	}
	body, err := ReadSized(r.Body, want, limit)
	if err != nil {
		return nil, err
	}
	return body, fieldEnd(r, want)
}

// ReadField is ReadFieldBody decoded: the body is read straight into the
// field's storage, buf's array when it can hold the field (field.ReadRawInto),
// and is never buffered elsewhere.
func ReadField(r *http.Request, nx, ny, nz int, buf []float32) (*field.Field, error) {
	want, err := fieldBytes(r, nx, ny, nz, MaxBody)
	if err != nil {
		return nil, err
	}
	f, err := field.ReadRawInto("http", nx, ny, nz, r.Body, buf)
	if err != nil {
		return nil, err
	}
	return f, fieldEnd(r, want)
}
