package zfp

import (
	mbits "math/bits"

	"carol/internal/bitstream"
)

// refEncodePlanes and refDecodePlanes are the bit-plane coder this package
// shipped up to PR 17, verbatim bar the names: one closure call per stream
// bit, the fixed-rate budget checked at every bit. They are the oracle for
// FuzzPlanes and the plane tests — slow, and the definition of the format.

// refEncodePlanes writes the embedded bit-plane code for the (sequency-ordered)
// negabinary coefficients, from plane 31 down to kmin. budget < 0 means
// unlimited. Returns bits written.
func refEncodePlanes(w *bitstream.Writer, u []uint32, kmin int, budget int64) int64 {
	size := len(u)
	// Transpose coefficients into per-plane masks, touching each set bit
	// exactly once.
	var planes [32]uint64
	for i, c := range u {
		for c != 0 {
			k := mbits.TrailingZeros32(c)
			planes[k] |= 1 << uint(i)
			c &= c - 1
		}
	}
	var written int64
	emit := func(bit uint64) bool {
		if budget >= 0 && written >= budget {
			return false
		}
		w.WriteBits(bit, 1)
		written++
		return true
	}
	n := 0
	for k := 31; k >= kmin; k-- {
		x := planes[k]
		// Verbatim bits for the first n coefficients, batched. The stream
		// order is coefficient 0 first, so reverse the low n bits.
		if n > 0 {
			m := n
			if budget >= 0 && written+int64(m) > budget {
				m = int(budget - written)
			}
			if m > 0 {
				w.WriteBits(mbits.Reverse64(x)>>uint(64-m), uint(m))
				written += int64(m)
			}
			if m < n {
				return written
			}
		}
		i := n
		for i < size {
			rem := x >> uint(i)
			if rem == 0 {
				if !emit(0) {
					return written
				}
				break
			}
			if !emit(1) {
				return written
			}
			for i < size-1 {
				b := (x >> uint(i)) & 1
				if !emit(b) {
					return written
				}
				if b != 0 {
					break
				}
				i++
			}
			i++
		}
		n = i
	}
	return written
}

// refDecodePlanes mirrors refEncodePlanes. budget < 0 means unlimited; when the
// budget (or the stream) is exhausted, the partially decoded plane is
// discarded and remaining planes decode as zero.
func refDecodePlanes(r *bitstream.Reader, u []uint32, kmin int, budget int64) int64 {
	size := len(u)
	var consumed int64
	grab := func() (uint64, bool) {
		if budget >= 0 && consumed >= budget {
			return 0, false
		}
		b, err := r.ReadBits(1)
		if err != nil {
			return 0, false
		}
		consumed++
		return b, true
	}
	n := 0
planes:
	for k := 31; k >= kmin; k-- {
		var x uint64
		if n > 0 {
			// Batched verbatim bits (reverse of the encoder's order).
			if budget >= 0 && consumed+int64(n) > budget {
				break planes
			}
			v, err := r.ReadBits(uint(n))
			if err != nil {
				break planes
			}
			consumed += int64(n)
			x = mbits.Reverse64(v << uint(64-n))
		}
		i := n
		for i < size {
			gb, ok := grab()
			if !ok {
				break planes
			}
			if gb == 0 {
				break
			}
			found := false
			for i < size-1 {
				b, ok := grab()
				if !ok {
					break planes
				}
				if b != 0 {
					x |= 1 << uint(i)
					found = true
					break
				}
				i++
			}
			if !found {
				x |= 1 << uint(size-1)
				i = size - 1
			}
			i++
		}
		n = i
		for j := range u {
			u[j] |= uint32((x>>uint(j))&1) << uint(k)
		}
	}
	return consumed
}
