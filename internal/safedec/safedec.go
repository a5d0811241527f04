// Package safedec is the shared decode-hardening layer under every
// decoder in this repository (the five codecs, the huffman entropy stage,
// and the chunked/archive container formats). Compressed streams arrive
// over the network (carolserve's /v1/decompress), so every header field —
// lengths, counts, dimensions — is attacker-controlled. safedec gives the
// decoders three things:
//
//   - an error taxonomy (ErrTruncated, ErrCorrupt, ErrLimit) so callers can
//     distinguish bad input from bugs and map each class to the right
//     HTTP status / metric;
//   - a Limits struct, threaded from callers, bounding how much memory a
//     single decode may commit to on the strength of header claims alone;
//   - a bounds-enforcing byte reader whose fixed-width and varint reads
//     return ErrTruncated instead of slicing out of range.
//
// The invariant every decoder retrofitted onto this package maintains:
// Decompress(arbitrary bytes) returns an error — it never panics and never
// allocates unbounded memory from a hostile length field. DESIGN.md §11
// documents the threat model.
package safedec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The three decode-failure classes. Every error a hardened decoder returns
// wraps exactly one of these (checkable with errors.Is):
//
//   - ErrTruncated: the input ended before the structure it claims to hold;
//     retrying with the complete stream could succeed.
//   - ErrCorrupt: the input is structurally invalid (bad magic, checksum
//     mismatch, impossible field values); no amount of retrying helps.
//   - ErrLimit: the input is not provably invalid but decoding it would
//     exceed the caller's configured resource limits.
var (
	ErrTruncated = errors.New("safedec: truncated input")
	ErrCorrupt   = errors.New("safedec: corrupt input")
	ErrLimit     = errors.New("safedec: decode limit exceeded")
)

// Classify maps err to a short reason label for metrics ("limit",
// "truncated", "corrupt"), or "" when err does not belong to the taxonomy.
// Truncation is checked before corruption: a truncated stream is usually
// also wrapped as malformed, and the more specific class wins.
func Classify(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrLimit):
		return "limit"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return ""
}

// maxDim bounds any single grid dimension, keeping products of three
// dimensions far from int64 overflow.
const maxDim = 1 << 30

// Limits bounds the resources a single decode may commit on the strength
// of header-claimed values. The zero value of any field means "use the
// package default" (the Default values), so callers can override only the
// knobs they care about.
type Limits struct {
	// MaxElements caps the decoded field's element count (the product of
	// the header-claimed dimensions). Default 1<<28 — a 1 GiB float32
	// field, matching the historical ParseHeader cap.
	MaxElements int64
	// MaxAlloc caps any single decode-side allocation sized by a claimed
	// length rather than by the dimensions (inflated payload bytes, symbol
	// counts, archive entry streams). Default 1<<32.
	MaxAlloc int64
	// MaxCount caps structural counts a container header may claim
	// (archive fields, chunked slabs, huffman alphabet size). Default 1<<20.
	MaxCount int64
}

// Default returns the library's permissive defaults, sized so that every
// stream a seed-era decoder accepted still decodes. Services exposed to
// untrusted traffic should configure far tighter values (carolserve does,
// via -max-decode-* flags).
func Default() Limits {
	return Limits{MaxElements: 1 << 28, MaxAlloc: 1 << 32, MaxCount: 1 << 20}
}

// Norm fills zero fields with the Default values. Negative values are
// normalized to the defaults too: there is no meaningful "minus one byte"
// budget, and clamping beats silently disabling the guard.
func (l Limits) Norm() Limits {
	d := Default()
	if l.MaxElements <= 0 {
		l.MaxElements = d.MaxElements
	}
	if l.MaxAlloc <= 0 {
		l.MaxAlloc = d.MaxAlloc
	}
	if l.MaxCount <= 0 {
		l.MaxCount = d.MaxCount
	}
	return l
}

// Elements validates header-claimed grid dimensions and returns their
// product. It rejects non-positive or oversized dimensions (ErrCorrupt)
// and products beyond MaxElements (ErrLimit), without ever overflowing.
func (l Limits) Elements(nx, ny, nz int) (int, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 || nx > maxDim || ny > maxDim || nz > maxDim {
		return 0, fmt.Errorf("%w: bad dims %dx%dx%d", ErrCorrupt, nx, ny, nz)
	}
	n := int64(nx) * int64(ny)
	if n > l.Norm().MaxElements || n*int64(nz) > l.Norm().MaxElements {
		return 0, fmt.Errorf("%w: %dx%dx%d grid exceeds %d elements",
			ErrLimit, nx, ny, nz, l.Norm().MaxElements)
	}
	return nx * ny * nz, nil
}

// Alloc validates a claimed-length allocation of n bytes for `what`.
func (l Limits) Alloc(what string, n int64) error {
	if n < 0 {
		return fmt.Errorf("%w: negative %s size", ErrCorrupt, what)
	}
	if n > l.Norm().MaxAlloc {
		return fmt.Errorf("%w: %s claims %d bytes (max %d)", ErrLimit, what, n, l.Norm().MaxAlloc)
	}
	return nil
}

// Count validates a claimed structural count of n items of `what`.
func (l Limits) Count(what string, n int64) error {
	if n < 0 {
		return fmt.Errorf("%w: negative %s count", ErrCorrupt, what)
	}
	if n > l.Norm().MaxCount {
		return fmt.Errorf("%w: %s count %d (max %d)", ErrLimit, what, n, l.Norm().MaxCount)
	}
	return nil
}

// FirstAlloc bounds the first allocation of ReadN. A longer read's buffer
// doubles only as its bytes arrive, so bytes a peer claims but never sends
// cannot pin more than this.
const FirstAlloc = 4 << 20

// ReadN reads the n bytes a peer claims r holds: a frame length, an archive
// entry, a declared body. The buffer starts at min(n, FirstAlloc) and
// doubles as the bytes arrive — never an upfront make([]byte, n) — so a
// claim the input does not back costs FirstAlloc or twice what was sent,
// whichever is more, and a backed one copies each byte O(1) times. An input that ends early is an
// error wrapping ErrTruncated and io.ErrUnexpectedEOF. Check n against
// Limits.Alloc first: ReadN bounds what an unbacked claim costs, not what a
// backed one may.
func ReadN(r io.Reader, n int64) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative claimed length %d", ErrCorrupt, n)
	}
	buf := make([]byte, min(n, FirstAlloc))
	for got := 0; ; {
		m, err := io.ReadFull(r, buf[got:])
		if got += m; err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("%w: %d of %d claimed bytes: %w", ErrTruncated, got, n, err)
		}
		if int64(got) == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-int64(got), int64(got)))...)
	}
}

// Reader consumes a byte slice with bounds-enforced reads: every method
// returns ErrTruncated (wrapped, with the offset) instead of reading past
// the end. It never copies the underlying buffer.
type Reader struct {
	buf []byte
	pos int
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Remaining reports the unread byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

func (r *Reader) short(what string, n int) error {
	return fmt.Errorf("%w: need %d bytes for %s at offset %d, have %d",
		ErrTruncated, n, what, r.pos, r.Remaining())
}

// U8 reads one byte.
func (r *Reader) U8(what string) (byte, error) {
	if r.Remaining() < 1 {
		return 0, r.short(what, 1)
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// U32 reads a little-endian uint32.
func (r *Reader) U32(what string) (uint32, error) {
	if r.Remaining() < 4 {
		return 0, r.short(what, 4)
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

// U64 reads a little-endian uint64.
func (r *Reader) U64(what string) (uint64, error) {
	if r.Remaining() < 8 {
		return 0, r.short(what, 8)
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}

// BE64 reads a big-endian uint64 (the codecs' bit-length prefixes).
func (r *Reader) BE64(what string) (uint64, error) {
	if r.Remaining() < 8 {
		return 0, r.short(what, 8)
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}

// Uvarint reads an unsigned varint. Overlong or non-terminated encodings
// are ErrCorrupt / ErrTruncated respectively.
func (r *Reader) Uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	switch {
	case n > 0:
		r.pos += n
		return v, nil
	case n == 0:
		return 0, r.short(what, 1)
	default:
		return 0, fmt.Errorf("%w: overlong varint for %s at offset %d", ErrCorrupt, what, r.pos)
	}
}

// Take returns the next n bytes as a subslice (no copy).
func (r *Reader) Take(what string, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative length for %s", ErrCorrupt, what)
	}
	if r.Remaining() < n {
		return nil, r.short(what, n)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// Rest returns everything unread (no copy) and advances to the end.
func (r *Reader) Rest() []byte {
	b := r.buf[r.pos:]
	r.pos = len(r.buf)
	return b
}
