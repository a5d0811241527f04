package httpkit

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"carol/internal/field"
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

// CheckLength refuses a declared Content-Length over limit before a byte
// of the body is read.
func CheckLength(r *http.Request, limit int64) error {
	if r.ContentLength > limit {
		return fmt.Errorf("%w: content length %d exceeds %d bytes", ErrTooLarge, r.ContentLength, limit)
	}
	return nil
}

// ReadBody buffers a request body of at most limit bytes; the read itself
// is capped so a client lying about its length cannot out-allocate the
// limit either.
func ReadBody(r *http.Request, limit int64) ([]byte, error) {
	if err := CheckLength(r, limit); err != nil {
		return nil, err
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", ErrTooLarge, limit)
	}
	return body, nil
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

// ReadField reads the raw little-endian float32 body of a request whose
// dims (from Dims) are nx × ny × nz.
func ReadField(r *http.Request, nx, ny, nz int) (*field.Field, error) {
	if err := CheckLength(r, MaxBody); err != nil {
		return nil, err
	}
	return field.ReadRaw("http", nx, ny, nz, io.LimitReader(r.Body, MaxBody))
}
