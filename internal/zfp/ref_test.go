package zfp

import (
	"math"
	mbits "math/bits"

	"carol/internal/bitstream"
	"carol/internal/field"
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

// What follows is the predict/transform half of a block as this package
// shipped it up to PR 21, verbatim bar the names: every sample gathered and
// scattered through f.At / f.Set with its own clamp, the block maximum found
// by a second scan, the lifting step a call on a bounds-checked slice. They
// are the oracle for TestBlocksMatchReference.

// refFwdLift applies ZFP's forward decorrelating lifting to 4 values at stride s.
func refFwdLift(p []int32, off, s int) {
	x, y, z, w := p[off], p[off+s], p[off+2*s], p[off+3*s]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	p[off], p[off+s], p[off+2*s], p[off+3*s] = x, y, z, w
}

// refInvLift reverses refFwdLift.
func refInvLift(p []int32, off, s int) {
	x, y, z, w := p[off], p[off+s], p[off+2*s], p[off+3*s]
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[off], p[off+s], p[off+2*s], p[off+3*s] = x, y, z, w
}

func refFwdXform(blk []int32, sh blockShape) {
	for i := 0; i < sh.size; i += side {
		refFwdLift(blk, i, 1)
	}
	if sh.dims >= 2 {
		for z := 0; z < sh.sz; z++ {
			for x := 0; x < sh.sx; x++ {
				refFwdLift(blk, z*sh.sx*sh.sy+x, sh.sx)
			}
		}
	}
	if sh.dims >= 3 {
		for y := 0; y < sh.sy; y++ {
			for x := 0; x < sh.sx; x++ {
				refFwdLift(blk, y*sh.sx+x, sh.sx*sh.sy)
			}
		}
	}
}

func refInvXform(blk []int32, sh blockShape) {
	if sh.dims >= 3 {
		for y := 0; y < sh.sy; y++ {
			for x := 0; x < sh.sx; x++ {
				refInvLift(blk, y*sh.sx+x, sh.sx*sh.sy)
			}
		}
	}
	if sh.dims >= 2 {
		for z := 0; z < sh.sz; z++ {
			for x := 0; x < sh.sx; x++ {
				refInvLift(blk, z*sh.sx*sh.sy+x, sh.sx)
			}
		}
	}
	for i := 0; i < sh.size; i += side {
		refInvLift(blk, i, 1)
	}
}

// refGatherBlock copies the block at (bx, by, bz) into blk (float64), padding
// partial blocks by edge replication.
func refGatherBlock(f *field.Field, sh blockShape, bx, by, bz int, blk []float64) {
	for z := 0; z < sh.sz; z++ {
		zz := bz + z
		if zz >= f.Nz {
			zz = f.Nz - 1
		}
		for y := 0; y < sh.sy; y++ {
			yy := by + y
			if yy >= f.Ny {
				yy = f.Ny - 1
			}
			for x := 0; x < sh.sx; x++ {
				xx := bx + x
				if xx >= f.Nx {
					xx = f.Nx - 1
				}
				blk[(z*sh.sy+y)*sh.sx+x] = float64(f.At(xx, yy, zz))
			}
		}
	}
}

// refScatterBlock writes the valid region of blk back into f.
func refScatterBlock(f *field.Field, sh blockShape, bx, by, bz int, blk []float64) {
	for z := 0; z < sh.sz && bz+z < f.Nz; z++ {
		for y := 0; y < sh.sy && by+y < f.Ny; y++ {
			for x := 0; x < sh.sx && bx+x < f.Nx; x++ {
				f.Set(bx+x, by+y, bz+z, float32(blk[(z*sh.sy+y)*sh.sx+x]))
			}
		}
	}
}

// refBlockEmax returns the common block exponent: the smallest e with
// max|v| <= 2^e. Returns ok=false for an all-zero block.
func refBlockEmax(blk []float64) (int, bool) {
	var m float64
	for _, v := range blk {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	if m == 0 { //carol:allow floateq all-zero block is an exact, common case
		return 0, false
	}
	_, e := math.Frexp(m) // m = f * 2^e, f in [0.5, 1)
	return e, true
}
