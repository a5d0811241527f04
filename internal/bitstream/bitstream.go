// Package bitstream provides bit-granular writers and readers used by the
// lossy compressors in this repository. All compressors (SZx, ZFP, SZ3,
// SPERR) emit variable-width codes; Writer packs them MSB-first into a byte
// slice and Reader unpacks them in the same order.
package bitstream

import (
	"encoding/binary"
	"fmt"

	"carol/internal/safedec"
)

// ErrShortStream is returned by Reader methods when the stream ends before
// the requested number of bits could be read. It belongs to the safedec
// taxonomy: errors.Is(ErrShortStream, safedec.ErrTruncated) is true, so
// callers wrapping it with %w propagate the truncation class.
var ErrShortStream error = shortStreamError{}

type shortStreamError struct{}

func (shortStreamError) Error() string { return "bitstream: short stream" }

func (shortStreamError) Is(target error) bool { return target == safedec.ErrTruncated }

// Writer accumulates bits MSB-first. The zero value is ready to use.
type Writer struct {
	buf []byte // whole flushed words
	cur uint64 // pending bits, left-aligned; everything below them is zero
	n   uint   // number of pending bits in cur (< 64)
}

// NewWriter returns a Writer with capacity hint of n bytes.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// Reset rewinds the Writer to an empty stream, retaining the underlying
// buffer so a pooled Writer reused across blocks stops allocating once it
// has grown to the block working-set size.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur = 0
	w.n = 0
}

// WriteBit appends a single bit (any nonzero b writes 1).
func (w *Writer) WriteBit(b uint) {
	if b != 0 {
		b = 1
	}
	w.WriteBits(uint64(b), 1)
}

// WriteBits appends the low `width` bits of v, MSB of the field first.
// width must be in [0, 64].
//
// The body is sized to the compiler's inlining budget, which it meets with
// nothing to spare, so the codecs' packing loops pay no call per field: the
// left shift drops the bits of v above width, the right shift lands the
// field behind the pending bits, and only a filled word leaves the line.
// The price is that the width check lives in spill, which sees the pending
// count only after the add — a width over 64 panics there when it overruns
// a second word and is a caller bug (no in-tree width is unbounded) when it
// does not.
func (w *Writer) WriteBits(v uint64, width uint) {
	w.cur |= v << (64 - width) >> w.n
	w.n += width
	if w.n >= 64 {
		w.spill(v)
	}
}

// spill flushes the filled word and restarts the pending word with the bits
// of v that did not fit.
func (w *Writer) spill(v uint64) {
	if w.n >= 128 {
		panic(fmt.Sprintf("bitstream: invalid width (%d pending bits)", w.n))
	}
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.cur)
	w.n -= 64
	w.cur = v << (64 - w.n)
}

// appendTail appends the pending partial word to dst, zero-padded to a byte.
func (w *Writer) appendTail(dst []byte) []byte {
	v := w.cur
	for used := uint(0); used < w.n; used += 8 {
		dst = append(dst, byte(v>>56))
		v <<= 8
	}
	return dst
}

// Bytes returns a copy of the stream, the partial final byte zero-padded.
// The Writer remains usable; further writes continue the logical bit stream
// but Bytes must then be called again. Encoders assembling an output buffer
// use AppendTo, which does not copy twice.
func (w *Writer) Bytes() []byte {
	out := make([]byte, len(w.buf), len(w.buf)+8)
	copy(out, w.buf)
	return w.appendTail(out)
}

// AppendTo appends the stream bytes (including a zero-padded partial final
// byte) to dst and returns the result. Unlike Bytes it allocates nothing
// beyond dst's own growth, so encoders can assemble output in place. The
// Writer is left untouched, exactly as Bytes does.
func (w *Writer) AppendTo(dst []byte) []byte {
	return w.appendTail(append(dst, w.buf...))
}

// BitLen reports the exact number of valid bits represented by Bytes().
func (w *Writer) BitLen() uint64 { return uint64(len(w.buf))*8 + uint64(w.n) }

// Reader consumes bits MSB-first from a byte slice through a 64-bit window.
//
// Window invariant: cur holds the next n unread bits left-aligned (the next
// bit of the stream is bit 63), pos is the first byte of buf not yet counted
// in n, and n never exceeds the bits left under the cap, so one compare
// against n is also the cap check. Bits of cur below the top n are zero, a
// copy of the stream bits that follow (refill ORs the same bytes over them
// again) or the padding of the final byte; they are never handed out: take
// shifts them away and Peek masks them.
type Reader struct {
	buf    []byte // trimmed to the bytes the cap can reach
	pos    int
	cur    uint64
	n      uint   // readable bits in cur (<= 64)
	loaded uint64 // bits counted into the window so far: Consumed() = loaded - n
	max    uint64 // readable bits in total
}

// NewReader returns a Reader over the first bitLen bits of buf.
func NewReader(buf []byte, bitLen uint64) *Reader {
	r := &Reader{}
	r.Reset(buf, bitLen)
	return r
}

// Reset re-targets the Reader at buf, so a decoder can reuse one
// Reader across blocks. bitLen is an exact cap on the readable bits — it is
// the length field of an untrusted header at every production call site, so
// 0 means nothing is readable; a caller that wants the whole buffer passes
// 8*len(buf). A bitLen beyond the buffer is clamped to it.
func (r *Reader) Reset(buf []byte, bitLen uint64) {
	if m := uint64(len(buf)) * 8; bitLen > m {
		bitLen = m
	}
	if buf != nil {
		buf = buf[:(bitLen+7)>>3]
	}
	*r = Reader{buf: buf, max: bitLen}
}

// refill tops the window up to at least 57 bits (fewer only at the end of
// the stream): one big-endian word load while eight bytes remain, a byte
// loop for the last seven.
func (r *Reader) refill() {
	if r.pos+8 <= len(r.buf) {
		r.cur |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.n
		k := (64 - r.n) >> 3
		r.pos += int(k)
		r.n += k << 3
		r.loaded += uint64(k) << 3
	} else {
		for r.n <= 56 && r.pos < len(r.buf) {
			r.cur |= uint64(r.buf[r.pos]) << (56 - r.n)
			r.pos++
			r.n += 8
			r.loaded += 8
		}
	}
	// buf is trimmed to the cap, so only the padding of its final byte can
	// lie beyond it — and that byte was loaded just now.
	if r.loaded > r.max {
		r.n -= uint(r.loaded - r.max)
		r.loaded = r.max
	}
}

// take consumes the top k <= n bits of the window and returns them
// right-aligned.
func (r *Reader) take(k uint) uint64 {
	v := r.cur >> (64 - k)
	r.cur <<= k
	r.n -= k
	return v
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.n == 0 {
		if r.loaded >= r.max {
			return 0, ErrShortStream
		}
		r.refill()
	}
	return uint(r.take(1)), nil
}

// ReadBits reads `width` bits, returning them right-aligned. width must be
// in [0, 64]. A read that would pass the cap fails with ErrShortStream and
// consumes nothing.
func (r *Reader) ReadBits(width uint) (uint64, error) {
	if width <= r.n {
		return r.take(width), nil
	}
	return r.readSlow(width)
}

// readSlow is ReadBits for a field the window does not hold yet.
func (r *Reader) readSlow(width uint) (uint64, error) {
	if width > 64 {
		panic(fmt.Sprintf("bitstream: invalid width %d", width))
	}
	if uint64(width) > r.Remaining() {
		return 0, ErrShortStream
	}
	r.refill()
	if width <= r.n {
		return r.take(width), nil
	}
	// 58..64 bits against a window of 57..63: two pieces.
	lo := width - r.n
	hi := r.take(r.n)
	r.refill()
	return hi<<lo | r.take(lo), nil
}

// Peek exposes the window without consuming it: the next avail bits of the
// stream, the very next one in bit 63, everything below them zero. avail is
// at least min(57, Remaining()) and never reaches past the cap, so a
// consumer that finds what it needs inside avail bits can Skip them without
// a further check, and one that does not falls back to ReadBit/ReadBits.
func (r *Reader) Peek() (win uint64, avail uint) {
	if r.n < 57 {
		r.refill()
	}
	return r.cur &^ (^uint64(0) >> r.n), r.n
}

// Skip consumes k bits of the window last returned by Peek; k must not
// exceed that call's avail.
func (r *Reader) Skip(k uint) {
	if k > r.n {
		panicSkip()
	}
	r.cur <<= k
	r.n -= k
}

func panicSkip() { panic("bitstream: Skip past the peeked bits") }

// Remaining reports the number of unread bits.
func (r *Reader) Remaining() uint64 { return r.max - r.loaded + uint64(r.n) }

// Consumed reports the number of bits read so far.
func (r *Reader) Consumed() uint64 { return r.loaded - uint64(r.n) }
