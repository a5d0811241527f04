// Package sz3 reimplements the SZ3 prediction-based error-bounded lossy
// compressor (Liang et al., IEEE TBD 2023) in pure Go. SZ3 is one of the two
// "high compression ratio" compressors of the CAROL evaluation.
//
// The pipeline follows SZ3's interpolation mode: a coarse anchor grid is
// stored losslessly, then successive refinement levels predict the remaining
// points with cubic spline interpolation along each dimension (using
// previously *reconstructed* values, which keeps every point's error within
// the bound), quantize the prediction residuals with a linear quantizer,
// entropy-code the quantization bins with canonical Huffman coding, and
// finally pass the stream through DEFLATE (the stand-in for SZ3's Zstd
// stage; see DESIGN.md).
package sz3

import (
	"encoding/binary"
	"fmt"
	"math"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/huffman"
	"carol/internal/safedec"
	"carol/internal/zpool"
)

// quantRadius is half the quantizer's code range; residuals quantizing
// outside ±quantRadius bins are stored as raw outliers (code 0).
const quantRadius = 32768

// Mode selects SZ3's predictor (SZ3 is a modular framework; the paper's
// evaluation uses the interpolation mode, the SZ family's classic predictor
// is Lorenzo).
type Mode byte

const (
	// ModeInterpolation is the multi-level cubic-interpolation predictor.
	ModeInterpolation Mode = 0
	// ModeLorenzo is the first-order Lorenzo predictor in a single raster
	// scan.
	ModeLorenzo Mode = 1
)

// Codec is the SZ3 compressor.
type Codec struct {
	mode Mode
}

// New returns an SZ3 codec in interpolation mode (the paper's setting).
func New() *Codec { return &Codec{mode: ModeInterpolation} }

// NewMode returns an SZ3 codec with an explicit predictor mode. Streams are
// self-describing: Decompress handles either mode regardless of the
// receiver's configuration.
func NewMode(m Mode) *Codec { return &Codec{mode: m} }

// Name implements compressor.Codec.
func (*Codec) Name() string { return "sz3" }

var _ compressor.Codec = (*Codec)(nil)

// target identifies one point to predict during a traversal level.
type target struct {
	x, y, z int
	axis    int // 0=x, 1=y, 2=z
	stride  int
}

// forEachTarget invokes fn for every predicted point in the canonical SZ3
// traversal order: strides from coarse to fine; within each stride the x,
// y, then z interpolation phases; within each phase, z-major scan order.
// The encoder and decoder must agree on this order exactly.
func forEachTarget(nx, ny, nz, stride0 int, fn func(t target)) {
	for s := stride0; s >= 1; s /= 2 {
		s2 := 2 * s
		// Phase X: x ≡ s (mod 2s), y ≡ 0 (mod 2s), z ≡ 0 (mod 2s).
		for z := 0; z < nz; z += s2 {
			for y := 0; y < ny; y += s2 {
				for x := s; x < nx; x += s2 {
					fn(target{x, y, z, 0, s})
				}
			}
		}
		// Phase Y: y ≡ s (mod 2s), x ≡ 0 (mod s), z ≡ 0 (mod 2s).
		for z := 0; z < nz; z += s2 {
			for y := s; y < ny; y += s2 {
				for x := 0; x < nx; x += s {
					fn(target{x, y, z, 1, s})
				}
			}
		}
		// Phase Z: z ≡ s (mod 2s), x ≡ 0 (mod s), y ≡ 0 (mod s).
		for z := s; z < nz; z += s2 {
			for y := 0; y < ny; y += s {
				for x := 0; x < nx; x += s {
					fn(target{x, y, z, 2, s})
				}
			}
		}
	}
}

// anchorStride returns the spacing of the losslessly stored anchor grid.
func anchorStride(nx, ny, nz int) int {
	maxDim := nx
	if ny > maxDim {
		maxDim = ny
	}
	if nz > maxDim {
		maxDim = nz
	}
	s := 1
	for 2*s < maxDim {
		s *= 2
	}
	return s // first level stride; anchors live on the 2s grid
}

// predict computes the interpolation prediction for t from reconstructed
// values: cubic spline through the four stride-spaced neighbors along
// t.axis when available, linear through two, or nearest-copy at boundaries.
func predict(recon []float64, nx, ny, nz int, t target) float64 {
	var dx, dy, dz int
	switch t.axis {
	case 0:
		dx = 1
	case 1:
		dy = 1
	default:
		dz = 1
	}
	at := func(k int) (float64, bool) {
		x, y, z := t.x+k*dx*t.stride, t.y+k*dy*t.stride, t.z+k*dz*t.stride
		if x < 0 || x >= nx || y < 0 || y >= ny || z < 0 || z >= nz {
			return 0, false
		}
		return recon[(z*ny+y)*nx+x], true
	}
	m1, okM1 := at(-1)
	p1, okP1 := at(1)
	m3, okM3 := at(-3)
	p3, okP3 := at(3)
	switch {
	case okM3 && okM1 && okP1 && okP3:
		// Cubic spline midpoint: (-f(-3) + 9f(-1) + 9f(1) - f(3)) / 16.
		return (-m3 + 9*m1 + 9*p1 - p3) / 16
	case okM1 && okP1:
		return (m1 + p1) / 2
	case okM1:
		return m1
	case okP1:
		return p1
	default:
		return 0
	}
}

// lorenzoPredict computes the first-order Lorenzo prediction for the point
// at (x, y, z) from already-reconstructed raster-scan predecessors.
func lorenzoPredict(recon []float64, nx, ny int, x, y, z int) float64 {
	at := func(dx, dy, dz int) float64 {
		xx, yy, zz := x-dx, y-dy, z-dz
		if xx < 0 || yy < 0 || zz < 0 {
			return 0
		}
		return recon[(zz*ny+yy)*nx+xx]
	}
	return at(1, 0, 0) + at(0, 1, 0) + at(0, 0, 1) +
		at(1, 1, 1) - at(1, 1, 0) - at(1, 0, 1) - at(0, 1, 1)
}

// Compress implements compressor.Codec.
func (c *Codec) Compress(f *field.Field, eb float64) ([]byte, error) {
	if err := compressor.ValidateArgs(f, eb); err != nil {
		return nil, err
	}
	nx, ny, nz := f.Nx, f.Ny, f.Nz
	recon := make([]float64, len(f.Data))
	codes := make([]uint32, 0, len(f.Data))
	var anchors []float32
	var outliers []float32
	twoEB := 2 * eb

	quantize := func(idx int, pred float64) {
		v := float64(f.Data[idx])
		q := math.Round((v - pred) / twoEB)
		if math.Abs(q) < quantRadius {
			codes = append(codes, uint32(int32(q)+quantRadius))
			recon[idx] = pred + q*twoEB
		} else {
			codes = append(codes, 0)
			outliers = append(outliers, f.Data[idx])
			recon[idx] = v
		}
	}

	switch c.mode {
	case ModeLorenzo:
		// Single raster scan; no anchors (the first point predicts from 0).
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					idx := (z*ny+y)*nx + x
					quantize(idx, lorenzoPredict(recon, nx, ny, x, y, z))
				}
			}
		}
	default:
		for i, v := range f.Data {
			recon[i] = float64(v)
		}
		stride0 := anchorStride(nx, ny, nz)
		// Anchors (the 2*stride0 grid) are kept losslessly: recon already
		// holds their exact values; just record them for the stream.
		a2 := 2 * stride0
		for z := 0; z < nz; z += a2 {
			for y := 0; y < ny; y += a2 {
				for x := 0; x < nx; x += a2 {
					anchors = append(anchors, f.At(x, y, z))
				}
			}
		}
		forEachTarget(nx, ny, nz, stride0, func(t target) {
			idx := (t.z*ny+t.y)*nx + t.x
			quantize(idx, predict(recon, nx, ny, nz, t))
		})
	}

	// Assemble payload: mode byte, anchor count+values, outlier
	// count+values, Huffman stream; then DEFLATE the lot.
	payload := make([]byte, 0, 9+4*(len(anchors)+len(outliers))+len(codes))
	appendU32 := func(v uint32) {
		payload = binary.LittleEndian.AppendUint32(payload, v)
	}
	payload = append(payload, byte(c.mode))
	appendU32(uint32(len(anchors)))
	for _, a := range anchors {
		appendU32(math.Float32bits(a))
	}
	appendU32(uint32(len(outliers)))
	for _, o := range outliers {
		appendU32(math.Float32bits(o))
	}
	payload = huffman.AppendEncode(payload, codes)

	out := compressor.AppendHeader(nil, compressor.Header{
		Magic: compressor.MagicSZ3, Nx: nx, Ny: ny, Nz: nz, EB: eb,
	})
	out, err := zpool.AppendDeflate(out, payload)
	if err != nil {
		return nil, fmt.Errorf("sz3: flate: %w", err)
	}
	return out, nil
}

// Decompress implements compressor.Codec (default safedec limits).
func (c *Codec) Decompress(stream []byte) (*field.Field, error) {
	return c.DecompressLimited(stream, safedec.Default())
}

// DecompressLimited implements compressor.LimitedDecoder.
func (*Codec) DecompressLimited(stream []byte, lim safedec.Limits) (*field.Field, error) {
	lim = lim.Norm()
	h, rest, err := compressor.ParseHeaderLimited(stream, compressor.MagicSZ3, lim)
	if err != nil {
		return nil, err
	}
	payload, err := zpool.InflateTail(nil, rest, int64(h.Nx)*int64(h.Ny)*int64(h.Nz), lim)
	if err != nil {
		return nil, fmt.Errorf("%w: sz3 lossless tail: %w", compressor.ErrBadStream, err)
	}
	sr := safedec.NewReader(payload)
	modeByte, err := sr.U8("sz3 mode")
	if err != nil {
		return nil, fmt.Errorf("%w: sz3 missing mode byte: %w", compressor.ErrBadStream, err)
	}
	mode := Mode(modeByte)
	if mode != ModeInterpolation && mode != ModeLorenzo {
		return nil, fmt.Errorf("%w: sz3 unknown mode %d", compressor.ErrBadStream, mode)
	}
	// readF32s validates the claimed count against both the field size and
	// the bytes actually present BEFORE allocating the destination slice, so
	// a hostile count cannot trigger a multi-GiB make([]float32, n).
	readF32s := func(what string) ([]float32, error) {
		n, err := sr.U32(what + " count")
		if err != nil {
			return nil, fmt.Errorf("%w: sz3 %s count: %w", compressor.ErrBadStream, what, err)
		}
		if uint64(n) > uint64(h.Nx)*uint64(h.Ny)*uint64(h.Nz) {
			return nil, fmt.Errorf("%w: sz3 %s count %d", compressor.ErrBadStream, what, n)
		}
		raw, err := sr.Take(what+" values", int(n)*4)
		if err != nil {
			return nil, fmt.Errorf("%w: sz3 %s payload: %w", compressor.ErrBadStream, what, err)
		}
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		return vals, nil
	}
	anchors, err := readF32s("anchor")
	if err != nil {
		return nil, err
	}
	outliers, err := readF32s("outlier")
	if err != nil {
		return nil, err
	}
	codes, err := huffman.DecodeLimited(sr.Rest(), lim)
	if err != nil {
		return nil, fmt.Errorf("%w: sz3 huffman: %w", compressor.ErrBadStream, err)
	}

	nx, ny, nz := h.Nx, h.Ny, h.Nz
	f := field.New("sz3", nx, ny, nz)
	recon := make([]float64, len(f.Data))
	ci, oi := 0, 0
	twoEB := 2 * h.EB
	var terr error
	reconstruct := func(idx int, pred float64) {
		if ci >= len(codes) {
			terr = fmt.Errorf("%w: sz3 codes exhausted", compressor.ErrBadStream)
			return
		}
		code := codes[ci]
		ci++
		if code == 0 {
			if oi >= len(outliers) {
				terr = fmt.Errorf("%w: sz3 outliers exhausted", compressor.ErrBadStream)
				return
			}
			recon[idx] = float64(outliers[oi])
			oi++
			return
		}
		recon[idx] = pred + float64(int32(code)-quantRadius)*twoEB
	}

	if mode == ModeLorenzo {
	lorenzo:
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					reconstruct((z*ny+y)*nx+x, lorenzoPredict(recon, nx, ny, x, y, z))
					if terr != nil {
						break lorenzo
					}
				}
			}
		}
	} else {
		stride0 := anchorStride(nx, ny, nz)
		a2 := 2 * stride0
		ai := 0
		for z := 0; z < nz; z += a2 {
			for y := 0; y < ny; y += a2 {
				for x := 0; x < nx; x += a2 {
					if ai >= len(anchors) {
						return nil, fmt.Errorf("%w: sz3 anchors exhausted", compressor.ErrBadStream)
					}
					recon[(z*ny+y)*nx+x] = float64(anchors[ai])
					ai++
				}
			}
		}
		forEachTarget(nx, ny, nz, stride0, func(t target) {
			if terr != nil {
				return
			}
			reconstruct((t.z*ny+t.y)*nx+t.x, predict(recon, nx, ny, nz, t))
		})
	}
	if terr != nil {
		return nil, terr
	}
	for i, v := range recon {
		f.Data[i] = float32(v)
	}
	return f, nil
}

// LastLevelCodes runs only the finest interpolation level (stride 1) on f,
// predicting each odd-coordinate point from the *original* even-coordinate
// values, and returns the quantization codes. This is the computation the
// SECRE SZ3 surrogate performs: the most expensive iteration of the
// interpolation cascade, with no reconstruction feedback, no Huffman stage
// and no Zstd stage.
func LastLevelCodes(f *field.Field, eb float64) []uint32 {
	nx, ny, nz := f.Nx, f.Ny, f.Nz
	recon := make([]float64, len(f.Data))
	for i, v := range f.Data {
		recon[i] = float64(v)
	}
	codes := make([]uint32, 0, len(f.Data))
	twoEB := 2 * eb
	forEachTargetLevel(nx, ny, nz, 1, func(t target) {
		idx := (t.z*ny+t.y)*nx + t.x
		pred := predict(recon, nx, ny, nz, t)
		q := math.Round((float64(f.Data[idx]) - pred) / twoEB)
		if math.Abs(q) < quantRadius {
			codes = append(codes, uint32(int32(q)+quantRadius))
		} else {
			codes = append(codes, 0)
		}
	})
	return codes
}

// forEachTargetLevel visits the targets of a single stride level.
func forEachTargetLevel(nx, ny, nz, s int, fn func(t target)) {
	s2 := 2 * s
	for z := 0; z < nz; z += s2 {
		for y := 0; y < ny; y += s2 {
			for x := s; x < nx; x += s2 {
				fn(target{x, y, z, 0, s})
			}
		}
	}
	for z := 0; z < nz; z += s2 {
		for y := s; y < ny; y += s2 {
			for x := 0; x < nx; x += s {
				fn(target{x, y, z, 1, s})
			}
		}
	}
	for z := s; z < nz; z += s2 {
		for y := 0; y < ny; y += s {
			for x := 0; x < nx; x += s {
				fn(target{x, y, z, 2, s})
			}
		}
	}
}
