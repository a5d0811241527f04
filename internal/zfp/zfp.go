// Package zfp reimplements the ZFP transform-based lossy compressor
// (Lindstrom, TVCG 2014) in pure Go. ZFP is the "transformation-based
// high-throughput" compressor of the CAROL evaluation.
//
// The pipeline follows the original design: the field is split into blocks
// of 4 samples per (non-trivial) dimension; each block is converted to a
// block-floating-point fixed-point representation under a common exponent,
// decorrelated with ZFP's non-orthogonal integer lifting transform, reordered
// by total sequency, mapped to negabinary, and entropy-coded with ZFP's
// embedded group-tested bit-plane code.
//
// Two modes are provided:
//   - fixed accuracy (error-bounded): Compress / Decompress, the mode the
//     CAROL framework targets;
//   - fixed rate: CompressFixedRate / DecompressFixedRate, the baseline
//     "fixed-ratio by construction" mode §2.2 of the paper discusses.
package zfp

import (
	"fmt"
	"math"
	mbits "math/bits"
	"sort"

	"carol/internal/bitstream"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/safedec"
)

// side is the block edge length (4, as in ZFP).
const side = 4

// intBits is the fixed-point width used per coefficient.
const intBits = 30

// Codec is the fixed-accuracy ZFP compressor.
type Codec struct{}

// New returns a ZFP codec.
func New() *Codec { return &Codec{} }

// Name implements compressor.Codec.
func (*Codec) Name() string { return "zfp" }

var _ compressor.Codec = (*Codec)(nil)

// blockShape describes the block geometry for a field's dimensionality.
type blockShape struct {
	dims  int
	sx    int // block side along x (always 4)
	sy    int
	sz    int
	size  int   // samples per block
	perm  []int // total-sequency permutation
	guard int   // guard bits for the error-bound -> plane cutoff
}

var shapes = [4]blockShape{1: makeShape(1), 2: makeShape(2), 3: makeShape(3)}

func makeShape(dims int) blockShape {
	sh := blockShape{dims: dims, sx: side, sy: 1, sz: 1}
	if dims >= 2 {
		sh.sy = side
	}
	if dims >= 3 {
		sh.sz = side
	}
	sh.size = sh.sx * sh.sy * sh.sz
	sh.perm = sequencyPerm(sh)
	sh.guard = 2*(dims+1) + 1
	return sh
}

// sequencyPerm orders block-local indices by total coordinate sum (low
// sequency first), matching ZFP's energy-concentrating traversal.
func sequencyPerm(sh blockShape) []int {
	perm := make([]int, sh.size)
	for i := range perm {
		perm[i] = i
	}
	coordSum := func(i int) int {
		x := i % sh.sx
		y := (i / sh.sx) % sh.sy
		z := i / (sh.sx * sh.sy)
		return x + y + z
	}
	sort.SliceStable(perm, func(a, b int) bool {
		sa, sb := coordSum(perm[a]), coordSum(perm[b])
		if sa != sb {
			return sa < sb
		}
		return perm[a] < perm[b]
	})
	return perm
}

// fwdLift is ZFP's forward decorrelating lifting step on 4 values.
func fwdLift(x, y, z, w int32) (int32, int32, int32, int32) {
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
	return x, y, z, w
}

// invLift reverses fwdLift.
func invLift(x, y, z, w int32) (int32, int32, int32, int32) {
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
	return x, y, z, w
}

// fwdXform lifts the block held in p[:size] along x, then y, then z, with
// the strides of a full 4x4x4 block (1, 4, 16): a 2D block is its first
// plane and skips the z pass, a 1D block its first row. The index masks only
// tell the compiler what the loop bounds already guarantee.
func fwdXform(p *[64]int32, size int) {
	for i := 0; i < size; i += 4 {
		p[i&63], p[(i+1)&63], p[(i+2)&63], p[(i+3)&63] = fwdLift(p[i&63], p[(i+1)&63], p[(i+2)&63], p[(i+3)&63])
	}
	for z := 0; z+16 <= size; z += 16 {
		for i := z; i < z+4; i++ {
			p[i&63], p[(i+4)&63], p[(i+8)&63], p[(i+12)&63] = fwdLift(p[i&63], p[(i+4)&63], p[(i+8)&63], p[(i+12)&63])
		}
	}
	for i := 0; size == 64 && i < 16; i++ {
		p[i], p[i+16], p[i+32], p[i+48] = fwdLift(p[i], p[i+16], p[i+32], p[i+48])
	}
}

// invXform reverses fwdXform: z, then y, then x.
func invXform(p *[64]int32, size int) {
	for i := 0; size == 64 && i < 16; i++ {
		p[i], p[i+16], p[i+32], p[i+48] = invLift(p[i], p[i+16], p[i+32], p[i+48])
	}
	for z := 0; z+16 <= size; z += 16 {
		for i := z; i < z+4; i++ {
			p[i&63], p[(i+4)&63], p[(i+8)&63], p[(i+12)&63] = invLift(p[i&63], p[(i+4)&63], p[(i+8)&63], p[(i+12)&63])
		}
	}
	for i := 0; i < size; i += 4 {
		p[i&63], p[(i+1)&63], p[(i+2)&63], p[(i+3)&63] = invLift(p[i&63], p[(i+1)&63], p[(i+2)&63], p[(i+3)&63])
	}
}

// int32 <-> negabinary uint32.
const nbMask = 0xaaaaaaaa

func int2nb(i int32) uint32 { return (uint32(i) + nbMask) ^ nbMask }
func nb2int(u uint32) int32 { return int32((u ^ nbMask) - nbMask) }

// transpose8 transposes the 8x8 bit matrix held one row per byte (row r in
// byte r, column c in bit c of it) with three delta swaps.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	x ^= t ^ t<<28
	return x
}

// planeMasks transposes the coefficients into per-plane masks: bit i of
// planes[k] is bit k of u[i]. Planes below kmin are never coded, so they
// may be left incomplete. A 64-coefficient block goes through 8x8 bit-block
// transposes — eight coefficients by one byte lane of their bits at a time,
// lanes wholly below kmin skipped; the 4- and 16-coefficient blocks of 1D
// and 2D fields, too narrow for that to pay, scan their set bits.
func planeMasks(planes *[32]uint64, u []uint32, kmin int) {
	if len(u) != 64 {
		for i, c := range u {
			for c >>= uint(kmin); c != 0; c &= c - 1 {
				planes[kmin+mbits.TrailingZeros32(c)] |= 1 << uint(i)
			}
		}
		return
	}
	for g := uint(0); g < 64; g += 8 {
		c := u[g : g+8 : g+8]
		for lane := uint(kmin) &^ 7; lane < 32; lane += 8 {
			x := uint64(c[0]>>lane&0xFF) | uint64(c[1]>>lane&0xFF)<<8 |
				uint64(c[2]>>lane&0xFF)<<16 | uint64(c[3]>>lane&0xFF)<<24 |
				uint64(c[4]>>lane&0xFF)<<32 | uint64(c[5]>>lane&0xFF)<<40 |
				uint64(c[6]>>lane&0xFF)<<48 | uint64(c[7]>>lane&0xFF)<<56
			if x == 0 {
				continue
			}
			x = transpose8(x)
			p := planes[lane : lane+8 : lane+8]
			p[0] |= (x & 0xFF) << g
			p[1] |= (x >> 8 & 0xFF) << g
			p[2] |= (x >> 16 & 0xFF) << g
			p[3] |= (x >> 24 & 0xFF) << g
			p[4] |= (x >> 32 & 0xFF) << g
			p[5] |= (x >> 40 & 0xFF) << g
			p[6] |= (x >> 48 & 0xFF) << g
			p[7] |= (x >> 56) << g
		}
	}
}

// coefficients is the inverse of planeMasks: it ORs the planes at or above
// kmin back into u, through the same 8x8 transposes for a 64-coefficient
// block and over the set bits of each plane otherwise.
func coefficients(u []uint32, planes *[32]uint64, kmin int) {
	if len(u) != 64 {
		for k := kmin; k < 32; k++ {
			for x := planes[k]; x != 0; x &= x - 1 {
				u[mbits.TrailingZeros64(x)] |= 1 << uint(k)
			}
		}
		return
	}
	for lane := uint(kmin) &^ 7; lane < 32; lane += 8 {
		p := planes[lane : lane+8 : lane+8]
		if p[0]|p[1]|p[2]|p[3]|p[4]|p[5]|p[6]|p[7] == 0 {
			continue
		}
		for g := uint(0); g < 64; g += 8 {
			x := p[0]>>g&0xFF | (p[1]>>g&0xFF)<<8 | (p[2]>>g&0xFF)<<16 | (p[3]>>g&0xFF)<<24 |
				(p[4]>>g&0xFF)<<32 | (p[5]>>g&0xFF)<<40 | (p[6]>>g&0xFF)<<48 | (p[7]>>g&0xFF)<<56
			if x == 0 {
				continue
			}
			x = transpose8(x)
			c := u[g : g+8 : g+8]
			c[0] |= uint32(x&0xFF) << lane
			c[1] |= uint32(x>>8&0xFF) << lane
			c[2] |= uint32(x>>16&0xFF) << lane
			c[3] |= uint32(x>>24&0xFF) << lane
			c[4] |= uint32(x>>32&0xFF) << lane
			c[5] |= uint32(x>>40&0xFF) << lane
			c[6] |= uint32(x>>48&0xFF) << lane
			c[7] |= uint32(x>>56) << lane
		}
	}
}

// unlimited stands in for "no budget" so both modes run the same compare.
const unlimited = math.MaxInt64

// encodePlanes writes the embedded bit-plane code for the (sequency-ordered)
// negabinary coefficients, from plane 31 down to kmin. budget < 0 means
// unlimited (fixed accuracy); otherwise the code is cut after exactly budget
// bits (fixed rate). Returns bits written.
//
// Per plane: the bits of the n coefficients already known significant go out
// verbatim, coefficient 0 first; then group tests — a 1 says "another
// coefficient becomes significant in this plane" and is followed by the run
// of zeros up to it and its own 1 (implied, not written, when the run
// reaches the last coefficient), a 0 ends the plane. A group test and the
// run behind it are one code word, written by one WriteBits; every code
// word passes the single clip point below, which is all the fixed-rate mode
// adds.
func encodePlanes(w *bitstream.Writer, u []uint32, kmin int, budget int64) int64 {
	size := uint(len(u))
	var planes [32]uint64
	planeMasks(&planes, u, kmin)
	left := budget
	if budget < 0 {
		left = unlimited
	}
	start := left
	n := uint(0)
	for k := 31; k >= kmin; k-- {
		x := planes[k]
		// First code word of the plane: the verbatim bits (none while n == 0).
		code, width := mbits.Reverse64(x)>>(64-n), n
		i, open := n, true
		for {
			if int64(width) > left {
				w.WriteBits(code>>(width-uint(left)), uint(left))
				return start
			}
			w.WriteBits(code, width)
			left -= int64(width)
			if !open || i >= size {
				break
			}
			rest := x >> i
			if rest == 0 {
				code, width, open = 0, 1, false
				continue
			}
			z := uint(mbits.TrailingZeros64(rest))
			if i += z; i == size-1 {
				code, width = 1<<z, z+1
			} else {
				code, width = 1<<(z+1)|1, z+2
			}
			i++
		}
		n = i
	}
	return start - left
}

// decodePlanes mirrors encodePlanes. budget < 0 means unlimited; when the
// budget (or the stream) is exhausted, the partially decoded plane is
// discarded and remaining planes decode as zero. Returns bits consumed.
//
// The loop works on a local copy of the reader's window — win, of which
// avail bits are inside both the stream cap and the budget and used bits
// have been consumed here but not yet skipped in the reader. A code word
// that lies wholly inside the window is parsed from it: the verbatim bits
// by one bit reversal, a group test and its run by one LeadingZeros64. One
// that does not gets a fresh window (used > 0 says the current one is
// stale), and if even a fresh window cannot hold it — a run of 57 or more,
// the last bits of the stream, the edge of the budget — that one code word
// is read from the reader itself, a bit at a time for a group, so a
// truncated stream consumes exactly the bits the bit-by-bit decoder
// consumed and fails at the same block.
func decodePlanes(r *bitstream.Reader, u []uint32, kmin int, budget int64) int64 {
	size := uint(len(u))
	left := budget
	if budget < 0 {
		left = unlimited
	}
	start := left
	var planes [32]uint64
	win, avail := peekWithin(r, left)
	used, n := uint(0), uint(0)
scan:
	for k := 31; k >= kmin; k-- {
		var x uint64
		if n > 0 {
			if n > avail && used > 0 {
				r.Skip(used)
				win, avail = peekWithin(r, left)
				used = 0
			}
			if n <= avail {
				x = mbits.Reverse64(win) & (1<<n - 1)
				win <<= n
				avail -= n
				used += n
				left -= int64(n)
			} else {
				// A budget that cannot cover the verbatim bits ends the
				// block without consuming any of them.
				if int64(n) > left {
					break scan
				}
				v, err := r.ReadBits(n)
				if err != nil {
					break scan
				}
				left -= int64(n)
				x = mbits.Reverse64(v << (64 - n))
				win, avail = peekWithin(r, left)
			}
		}
		i := n
		for i < size {
			if avail > 0 && win>>63 == 0 { // group test 0: the plane is done
				win <<= 1
				avail--
				used++
				left--
				break
			}
			// Zeros behind the group test. The window is zero below the
			// cap, so the count can only overshoot; need <= avail catches it.
			z, run := uint(mbits.LeadingZeros64(win<<1)), size-1-i
			need := z + 2
			if z >= run {
				z, need = run, run+1 // the run reaches the last coefficient: its 1 is implied
			}
			if need <= avail {
				win <<= need
				avail -= need
				used += need
				left -= int64(need)
				i += z
				x |= 1 << i
				i++
				continue
			}
			if used > 0 {
				r.Skip(used)
				win, avail = peekWithin(r, left)
				used = 0
				continue
			}
			var more, ok bool
			i, more, ok = groupSlow(r, i, size, &left)
			if !ok {
				break scan
			}
			win, avail = peekWithin(r, left)
			if !more {
				break
			}
			x |= 1 << (i - 1)
		}
		n = i
		planes[k] = x
	}
	r.Skip(used)
	coefficients(u, &planes, kmin)
	return start - left
}

// peekWithin is Peek with avail clipped to the bits the budget still allows.
func peekWithin(r *bitstream.Reader, left int64) (win uint64, avail uint) {
	win, avail = r.Peek()
	if int64(avail) > left {
		avail = uint(left)
	}
	return win, avail
}

// groupSlow decodes one group test and the run behind it a bit at a time,
// charging every bit to *left. It returns the position after the newly
// significant coefficient and more = true, or i unchanged and more = false
// when the group test reads 0; ok = false when the budget or the stream ran
// out first.
func groupSlow(r *bitstream.Reader, i, size uint, left *int64) (next uint, more, ok bool) {
	grab := func() (uint, bool) {
		if *left <= 0 {
			return 0, false
		}
		b, err := r.ReadBit()
		if err != nil {
			return 0, false
		}
		*left--
		return b, true
	}
	test, ok := grab()
	if !ok || test == 0 {
		return i, false, ok
	}
	for ; i < size-1; i++ {
		b, ok := grab()
		if !ok {
			return i, false, false
		}
		if b != 0 {
			break
		}
	}
	return i + 1, true, true
}

// magBits is |v| as its IEEE bits: among finite float32s, and every sample
// that reaches a block is one, it orders exactly as the magnitude does.
func magBits(v float32) uint32 { return math.Float32bits(v) &^ (1 << 31) }

// gatherBlock copies the block at (bx, by, bz) into blk (float64), padding
// partial blocks by edge replication, and returns the largest magnitude in
// it. A block wholly inside the field is sy·sz copies of four adjacent
// samples; only an edge block pays for the clamping.
func gatherBlock(f *field.Field, sh blockShape, bx, by, bz int, blk []float64) float64 {
	var m uint32
	if bx+side <= f.Nx && by+sh.sy <= f.Ny && bz+sh.sz <= f.Nz {
		for z, o := 0, 0; z < sh.sz; z++ {
			at := ((bz+z)*f.Ny+by)*f.Nx + bx
			for y := 0; y < sh.sy; y++ {
				src, dst := f.Data[at:at+side:at+side], blk[o:o+side:o+side]
				dst[0], dst[1], dst[2], dst[3] = float64(src[0]), float64(src[1]), float64(src[2]), float64(src[3])
				m = max(m, magBits(src[0]), magBits(src[1]), magBits(src[2]), magBits(src[3]))
				at += f.Nx
				o += side
			}
		}
		return float64(math.Float32frombits(m))
	}
	for z := 0; z < sh.sz; z++ {
		zz := min(bz+z, f.Nz-1)
		for y := 0; y < sh.sy; y++ {
			row := (zz*f.Ny + min(by+y, f.Ny-1)) * f.Nx
			for x := 0; x < side; x++ {
				v := f.Data[row+min(bx+x, f.Nx-1)]
				blk[(z*sh.sy+y)*side+x] = float64(v)
				m = max(m, magBits(v))
			}
		}
	}
	return float64(math.Float32frombits(m))
}

// scatterBlock writes the valid region of blk back into f: whole rows of
// four for a block inside the field, the clipped region for an edge block.
func scatterBlock(f *field.Field, sh blockShape, bx, by, bz int, blk []float64) {
	if bx+side <= f.Nx && by+sh.sy <= f.Ny && bz+sh.sz <= f.Nz {
		for z, o := 0, 0; z < sh.sz; z++ {
			at := ((bz+z)*f.Ny+by)*f.Nx + bx
			for y := 0; y < sh.sy; y++ {
				src, dst := blk[o:o+side:o+side], f.Data[at:at+side:at+side]
				dst[0], dst[1], dst[2], dst[3] = float32(src[0]), float32(src[1]), float32(src[2]), float32(src[3])
				at += f.Nx
				o += side
			}
		}
		return
	}
	for z := 0; z < sh.sz && bz+z < f.Nz; z++ {
		for y := 0; y < sh.sy && by+y < f.Ny; y++ {
			row := ((bz+z)*f.Ny + by + y) * f.Nx
			for x := 0; x < side && bx+x < f.Nx; x++ {
				f.Data[row+bx+x] = float32(blk[(z*sh.sy+y)*side+x])
			}
		}
	}
}

// blockEmax returns the common exponent of a block whose largest magnitude
// is m: the smallest e with m <= 2^e. Returns ok=false for an all-zero block.
func blockEmax(m float64) (int, bool) {
	if m == 0 { //carol:allow floateq all-zero block is an exact, common case
		return 0, false
	}
	_, e := math.Frexp(m) // m = f * 2^e, f in [0.5, 1)
	return e, true
}

// planeCutoff returns the lowest bit plane that must be kept so the total
// reconstruction error stays below eb.
func planeCutoff(emax int, eb float64, sh blockShape) int {
	// Fixed-point LSB magnitude is 2^(emax-intBits); plane k contributes up
	// to ~2^k LSBs; the inverse transform amplifies by at most ~2^(dims+1).
	lsb := math.Ldexp(1, emax-intBits)
	return int(math.Floor(math.Log2(eb/lsb))) - sh.guard
}

func transformToNB(blk []float64, sh blockShape, emax int, u []uint32) {
	scale := math.Ldexp(1, intBits-emax)
	var ints [64]int32
	for i, v := range blk {
		q := v * scale
		if q > (1<<intBits)-1 {
			q = (1 << intBits) - 1
		} else if q < -(1 << intBits) {
			q = -(1 << intBits)
		}
		ints[i&63] = int32(q)
	}
	fwdXform(&ints, sh.size)
	for i, p := range sh.perm {
		u[i] = int2nb(ints[p&63])
	}
}

func nbToSamples(u []uint32, sh blockShape, emax int, blk []float64) {
	var ints [64]int32
	for i, p := range sh.perm {
		ints[p&63] = nb2int(u[i])
	}
	invXform(&ints, sh.size)
	scale := math.Ldexp(1, emax-intBits)
	for i := range blk {
		blk[i] = float64(ints[i&63]) * scale
	}
}

// encodeBlock writes one block, whose largest magnitude is maxAbs, in
// fixed-accuracy mode.
//
// Layout: 1 zero-block bit; if nonzero: 1 raw bit; raw blocks carry 32 bits
// per sample; coded blocks carry a 16-bit biased exponent, a 6-bit plane
// cutoff (63 = nothing coded), then the embedded planes.
func encodeBlock(w *bitstream.Writer, blk []float64, maxAbs float64, sh blockShape, eb float64) {
	emax, ok := blockEmax(maxAbs)
	if !ok {
		w.WriteBit(1)
		return
	}
	w.WriteBit(0)
	kmin := planeCutoff(emax, eb, sh)
	switch {
	case kmin > 31:
		if math.Ldexp(1, emax) <= eb {
			// All content below the bound: decode as zeros.
			w.WriteBit(0)
			w.WriteBits(uint64(emax+1024), 16)
			w.WriteBits(63, 6)
			return
		}
		writeRawBlock(w, blk)
	case kmin < 0:
		// eb finer than fixed-point resolution: store raw.
		writeRawBlock(w, blk)
	default:
		w.WriteBit(0)
		w.WriteBits(uint64(emax+1024), 16)
		w.WriteBits(uint64(kmin), 6)
		var uBuf [64]uint32
		u := uBuf[:sh.size]
		transformToNB(blk, sh, emax, u)
		encodePlanes(w, u, kmin, -1)
	}
}

func writeRawBlock(w *bitstream.Writer, blk []float64) {
	w.WriteBit(1)
	for _, v := range blk {
		w.WriteBits(uint64(math.Float32bits(float32(v))), 32)
	}
}

func decodeBlock(r *bitstream.Reader, blk []float64, sh blockShape) error {
	zero, err := r.ReadBit()
	if err != nil {
		return fmt.Errorf("%w: zfp block flag: %w", compressor.ErrBadStream, err)
	}
	if zero == 1 {
		clear(blk)
		return nil
	}
	raw, err := r.ReadBit()
	if err != nil {
		return fmt.Errorf("%w: zfp raw flag: %w", compressor.ErrBadStream, err)
	}
	if raw == 1 {
		for i := range blk {
			b, err := r.ReadBits(32)
			if err != nil {
				return fmt.Errorf("%w: zfp raw sample: %w", compressor.ErrBadStream, err)
			}
			blk[i] = float64(math.Float32frombits(uint32(b)))
		}
		return nil
	}
	e64, err := r.ReadBits(16)
	if err != nil {
		return fmt.Errorf("%w: zfp exponent: %w", compressor.ErrBadStream, err)
	}
	emax := int(e64) - 1024
	k64, err := r.ReadBits(6)
	if err != nil {
		return fmt.Errorf("%w: zfp kmin: %w", compressor.ErrBadStream, err)
	}
	kmin := int(k64)
	if kmin == 63 {
		clear(blk)
		return nil
	}
	if kmin > 31 {
		return fmt.Errorf("%w: zfp kmin %d", compressor.ErrBadStream, kmin)
	}
	var uBuf [64]uint32
	u := uBuf[:sh.size]
	decodePlanes(r, u, kmin, -1)
	nbToSamples(u, sh, emax, blk)
	return nil
}

// Compress implements compressor.Codec (fixed-accuracy mode).
func (*Codec) Compress(f *field.Field, eb float64) ([]byte, error) {
	if err := compressor.ValidateArgs(f, eb); err != nil {
		return nil, err
	}
	sh := shapes[f.Dims()]
	w := bitstream.NewWriter(f.SizeBytes() / 4)
	blk := make([]float64, sh.size)
	for bz := 0; bz < f.Nz; bz += sh.sz {
		for by := 0; by < f.Ny; by += sh.sy {
			for bx := 0; bx < f.Nx; bx += sh.sx {
				encodeBlock(w, blk, gatherBlock(f, sh, bx, by, bz, blk), sh, eb)
			}
		}
	}
	return compressor.SealBits(compressor.Header{
		Magic: compressor.MagicZFP, Nx: f.Nx, Ny: f.Ny, Nz: f.Nz, EB: eb,
	}, w), nil
}

func openStream(stream []byte, magic byte, lim safedec.Limits) (compressor.Header, *bitstream.Reader, error) {
	h, rest, err := compressor.ParseHeaderLimited(stream, magic, lim)
	if err != nil {
		return compressor.Header{}, nil, err
	}
	sr := safedec.NewReader(rest)
	bits, err := sr.BE64("zfp bit length")
	if err != nil {
		return compressor.Header{}, nil, fmt.Errorf("%w: missing bit length: %w", compressor.ErrBadStream, err)
	}
	payload := sr.Rest()
	if bits > uint64(len(payload))*8 {
		return compressor.Header{}, nil, fmt.Errorf("%w: bit length exceeds payload", compressor.ErrBadStream)
	}
	return h, bitstream.NewReader(payload, bits), nil
}

// Decompress implements compressor.Codec (default safedec limits).
func (c *Codec) Decompress(stream []byte) (*field.Field, error) {
	return c.DecompressLimited(stream, safedec.Default())
}

// DecompressLimited implements compressor.Codec.
func (*Codec) DecompressLimited(stream []byte, lim safedec.Limits) (*field.Field, error) {
	h, r, err := openStream(stream, compressor.MagicZFP, lim)
	if err != nil {
		return nil, err
	}
	f := field.New("zfp", h.Nx, h.Ny, h.Nz)
	sh := shapes[f.Dims()]
	blk := make([]float64, sh.size)
	for bz := 0; bz < f.Nz; bz += sh.sz {
		for by := 0; by < f.Ny; by += sh.sy {
			for bx := 0; bx < f.Nx; bx += sh.sx {
				if err := decodeBlock(r, blk, sh); err != nil {
					return nil, err
				}
				scatterBlock(f, sh, bx, by, bz, blk)
			}
		}
	}
	return f, nil
}

// CompressFixedRate encodes f at a fixed rate of `rate` bits per sample
// (the GPU-ZFP mode of §2.2). The achieved compression ratio is exactly
// 32/rate regardless of content; reconstruction error is NOT bounded.
func CompressFixedRate(f *field.Field, rate float64) ([]byte, error) {
	if err := compressor.ValidateArgs(f, 1); err != nil {
		return nil, err
	}
	sh := shapes[f.Dims()]
	budget := int64(rate * float64(sh.size))
	minBits := int64(16 + 1) // exponent + zero flag
	if budget < minBits {
		budget = minBits
	}
	w := bitstream.NewWriter(f.SizeBytes() / 4)
	blk := make([]float64, sh.size)
	u := make([]uint32, sh.size)
	for bz := 0; bz < f.Nz; bz += sh.sz {
		for by := 0; by < f.Ny; by += sh.sy {
			for bx := 0; bx < f.Nx; bx += sh.sx {
				emax, ok := blockEmax(gatherBlock(f, sh, bx, by, bz, blk))
				start := int64(w.BitLen())
				if !ok {
					w.WriteBit(1)
				} else {
					w.WriteBit(0)
					w.WriteBits(uint64(emax+1024), 16)
					for i := range u {
						u[i] = 0
					}
					transformToNB(blk, sh, emax, u)
					used := int64(w.BitLen()) - start
					encodePlanes(w, u, 0, budget-used)
				}
				// Pad the block to exactly `budget` bits.
				for pad := budget - (int64(w.BitLen()) - start); pad > 0; pad -= 64 {
					w.WriteBits(0, uint(min(pad, 64)))
				}
			}
		}
	}
	// The rate (bits per sample) travels in the EB header slot.
	return compressor.SealBits(compressor.Header{
		Magic: compressor.MagicZFP, Nx: f.Nx, Ny: f.Ny, Nz: f.Nz, EB: rate,
	}, w), nil
}

// DecompressFixedRate reverses CompressFixedRate under default limits.
func DecompressFixedRate(stream []byte) (*field.Field, error) {
	return DecompressFixedRateLimited(stream, safedec.Default())
}

// DecompressFixedRateLimited reverses CompressFixedRate, enforcing lim. The
// rate travels in the EB header slot; a hostile stream can claim any float64
// there, so it is validated against the 64 bits/sample ceiling before the
// per-block bit budget is derived from it.
func DecompressFixedRateLimited(stream []byte, lim safedec.Limits) (*field.Field, error) {
	h, r, err := openStream(stream, compressor.MagicZFP, lim)
	if err != nil {
		return nil, err
	}
	if !(h.EB > 0) || h.EB > 64 {
		return nil, fmt.Errorf("%w: zfp-fr rate %g out of range (0, 64]", compressor.ErrBadStream, h.EB)
	}
	f := field.New("zfp-fr", h.Nx, h.Ny, h.Nz)
	sh := shapes[f.Dims()]
	budget := int64(h.EB * float64(sh.size))
	minBits := int64(16 + 1)
	if budget < minBits {
		budget = minBits
	}
	blk := make([]float64, sh.size)
	u := make([]uint32, sh.size)
	for bz := 0; bz < f.Nz; bz += sh.sz {
		for by := 0; by < f.Ny; by += sh.sy {
			for bx := 0; bx < f.Nx; bx += sh.sx {
				start := int64(r.Consumed())
				zero, err := r.ReadBit()
				if err != nil {
					return nil, fmt.Errorf("%w: zfp-fr flag: %w", compressor.ErrBadStream, err)
				}
				if zero == 1 {
					clear(blk)
				} else {
					e64, err := r.ReadBits(16)
					if err != nil {
						return nil, fmt.Errorf("%w: zfp-fr exponent: %w", compressor.ErrBadStream, err)
					}
					for i := range u {
						u[i] = 0
					}
					used := int64(r.Consumed()) - start
					decodePlanes(r, u, 0, budget-used)
					nbToSamples(u, sh, int(e64)-1024, blk)
				}
				// Skip padding.
				for pad := budget - (int64(r.Consumed()) - start); pad > 0; pad -= 64 {
					if _, err := r.ReadBits(uint(min(pad, 64))); err != nil {
						return nil, fmt.Errorf("%w: zfp-fr padding: %w", compressor.ErrBadStream, err)
					}
				}
				scatterBlock(f, sh, bx, by, bz, blk)
			}
		}
	}
	return f, nil
}

// sampleSteps returns the per-axis strides, in samples, between the blocks
// that one-of-every sampling keeps: `every` blocks along each non-trivial
// dimension.
func sampleSteps(f *field.Field, sh blockShape, every int) (stepX, stepY, stepZ int) {
	stepX, stepY, stepZ = sh.sx*every, sh.sy, sh.sz
	if f.Ny > 1 {
		stepY *= every
	}
	if f.Nz > 1 {
		stepZ *= every
	}
	return stepX, stepY, stepZ
}

// SampledBlocks returns the block counts EstimateSampledBits reports for
// the same arguments. They depend on the grid alone, so a caller choosing
// `every` need not encode anything to learn them.
func SampledBlocks(f *field.Field, every int) (sampled, total int) {
	sh := shapes[f.Dims()]
	stepX, stepY, stepZ := sampleSteps(f, sh, max(every, 1))
	ceil := func(n, step int) int { return (n + step - 1) / step }
	return ceil(f.Nx, stepX) * ceil(f.Ny, stepY) * ceil(f.Nz, stepZ),
		ceil(f.Nx, sh.sx) * ceil(f.Ny, sh.sy) * ceil(f.Nz, sh.sz)
}

// EstimateSampledBits runs the real per-block encoder on one block of every
// `every` along each non-trivial dimension and reports the payload bits it
// produced plus the sampled and total block counts, for compression-ratio
// extrapolation. This is the computational core of the SECRE ZFP surrogate.
func EstimateSampledBits(f *field.Field, eb float64, every int) (bits uint64, sampled, total int) {
	sh := shapes[f.Dims()]
	blk := make([]float64, sh.size)
	w := bitstream.NewWriter(1024)
	stepX, stepY, stepZ := sampleSteps(f, sh, max(every, 1))
	for bz := 0; bz < f.Nz; bz += sh.sz {
		for by := 0; by < f.Ny; by += sh.sy {
			for bx := 0; bx < f.Nx; bx += sh.sx {
				total++
				if bx%stepX == 0 && by%stepY == 0 && bz%stepZ == 0 {
					encodeBlock(w, blk, gatherBlock(f, sh, bx, by, bz, blk), sh, eb)
					sampled++
				}
			}
		}
	}
	return w.BitLen(), sampled, total
}

// HeaderOverheadBytes is the fixed stream overhead (header + bit length).
const HeaderOverheadBytes = 25 + 8
