package bitstream

// refReader is the Reader this package shipped up to PR 17, kept verbatim
// (bar the name and the exact-cap bitLen of PR 19's bugfix) as the oracle
// for FuzzReaderOps and the window-edge tests: it refills eight bytes only
// when empty and assembles ReadBits from per-refill chunks, which is slow
// and obviously right.

import "fmt"

// refReader consumes bits MSB-first from a byte slice.
type refReader struct {
	buf  []byte
	pos  int    // index of next byte to load
	cur  uint64 // loaded bits, left-aligned in the low `n` bits
	n    uint
	read uint64
	max  uint64 // maximum readable bits
}

// newRefReader returns a refReader over the first bitLen bits of buf.
func newRefReader(buf []byte, bitLen uint64) *refReader {
	m := uint64(len(buf)) * 8
	if bitLen < m {
		m = bitLen
	}
	return &refReader{buf: buf, max: m}
}

// ReadBit reads a single bit.
func (r *refReader) ReadBit() (uint, error) {
	if r.read >= r.max {
		return 0, ErrShortStream
	}
	if r.n == 0 {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	r.n--
	r.read++
	return uint(r.cur>>r.n) & 1, nil
}

// ReadBits reads `width` bits, returning them right-aligned.
func (r *refReader) ReadBits(width uint) (uint64, error) {
	if width > 64 {
		panic(fmt.Sprintf("bitstream: invalid width %d", width))
	}
	if width == 0 {
		return 0, nil
	}
	if r.read+uint64(width) > r.max {
		return 0, ErrShortStream
	}
	var v uint64
	for width > 0 {
		if r.n == 0 {
			if err := r.fill(); err != nil {
				return 0, err
			}
		}
		take := width
		if take > r.n {
			take = r.n
		}
		r.n -= take
		v = v<<take | (r.cur>>r.n)&((1<<take)-1)
		r.read += uint64(take)
		width -= take
	}
	return v, nil
}

// Remaining reports the number of unread bits.
func (r *refReader) Remaining() uint64 { return r.max - r.read }

// Consumed reports the number of bits read so far.
func (r *refReader) Consumed() uint64 { return r.read }

func (r *refReader) fill() error {
	if r.pos >= len(r.buf) {
		return ErrShortStream
	}
	var v uint64
	var n uint
	for r.pos < len(r.buf) && n < 64 {
		v = v<<8 | uint64(r.buf[r.pos])
		r.pos++
		n += 8
	}
	r.cur = v
	r.n = n
	return nil
}
