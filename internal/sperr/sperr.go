// Package sperr reimplements the SPERR wavelet-based error-bounded lossy
// compressor (Li, Lindstrom & Clyne, IPDPS 2023) in pure Go. SPERR is the
// second "high compression ratio" compressor of the CAROL evaluation.
//
// The pipeline follows the original design: a multi-level CDF 9/7 wavelet
// transform, a SPECK-style set-partitioning bit-plane coder over the
// coefficient cube (octree significance testing with sign and refinement
// bits), an outlier-correction pass that restores the pointwise error bound
// for any samples the truncated wavelet reconstruction leaves outside it,
// and a final DEFLATE stage standing in for SPERR's Zstd stage (see
// DESIGN.md).
package sperr

import (
	"encoding/binary"
	"fmt"
	"math"

	"carol/internal/bitstream"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/safedec"
	"carol/internal/wavelet"
	"carol/internal/zpool"
)

// Codec is the SPERR compressor.
type Codec struct{}

// New returns a SPERR codec.
func New() *Codec { return &Codec{} }

// Name implements compressor.Codec.
func (*Codec) Name() string { return "sperr" }

var _ compressor.Codec = (*Codec)(nil)

// maxPasses caps the number of bit planes coded.
const maxPasses = 48

// stopDivisor sets the final wavelet-domain threshold relative to eb; the
// outlier pass guarantees the bound regardless, this only balances main-pass
// size against outlier count.
const stopDivisor = 4

// scratch is everything one call writes besides its result: the two
// coefficient grids, the coder's lists (speck.go), the SPECK bit buffer and
// the payload in the making. Every array is sized from the dims before it is
// written and none grows afterwards.
type scratch struct {
	g, rg    wavelet.Grid // coefficients; the decoder's view of them
	vals     []uint64     // encoder: per node id, quantized magnitude or subtree maximum
	queue    []uint32     // node ids: the insignificant sets, then this pass's splits
	lsp      []uint64     // magnitudes of the significant coefficients, in order found
	lspIdx   []uint32     // decoder: their grid indices, sign in bit 31
	w        bitstream.Writer
	payload  []byte
	outliers []outlier
}

// scratchPool may pin four sets, none of which ever served a field of more
// than maxPooledSamples samples (some 60 bytes of scratch per sample).
var scratchPool = zpool.NewFreeList(4, releaseScratch)

const maxPooledSamples = 1 << 18

// releaseScratch keeps s unless a large field, or a hostile stream, has grown
// it: the grid bounds every array sized from the dims, the payload and the
// outlier list follow what a stream claims. s holds no caller memory: every
// array in it is its own.
func releaseScratch(s *scratch) bool {
	return cap(s.g.Data) <= maxPooledSamples && cap(s.payload) <= 16*maxPooledSamples && cap(s.outliers) <= maxPooledSamples
}

// plan is the front half Compress and EstimateSampledBits share: the samples
// as float64, the forward transform, and from the largest coefficient the
// first threshold t0 = 2^⌊log₂ max|c|⌋ and the number of bit planes from
// there down to eb/stopDivisor. No planes — an all-zero field, or nothing
// above the last threshold — means there is nothing to code.
func (s *scratch) plan(f *field.Field, eb float64) (levels int, t0 float64, nPasses int) {
	s.g.Reset(f.Nx, f.Ny, f.Nz)
	for i, v := range f.Data {
		s.g.Data[i] = float64(v)
	}
	levels = wavelet.Levels(max(f.Nx, f.Ny, f.Nz))
	s.g.Forward(levels)
	var maxAbs float64
	for _, v := range s.g.Data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs > 0 {
		t0 = math.Pow(2, math.Floor(math.Log2(maxAbs)))
		tStop := eb / stopDivisor
		for T := t0; T >= tStop && nPasses < maxPasses; T /= 2 {
			nPasses++
		}
	}
	return levels, t0, nPasses
}

// outlier is one corrected sample.
type outlier struct {
	idx int
	q   int64 // correction in units of eb/2
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
func unzig(u uint64) int64  { return int64(u>>1) ^ -int64(u&1) }

// fixedLen is the payload's fixed head: t0, levels, nPasses, outlier count.
const fixedLen = 8 + 4 + 1 + 4

// Compress implements compressor.Codec.
func (*Codec) Compress(f *field.Field, eb float64) ([]byte, error) {
	if err := compressor.ValidateArgs(f, eb); err != nil {
		return nil, err
	}
	if f.Len() > maxSamples {
		return nil, fmt.Errorf("sperr: field of %d samples exceeds %d", f.Len(), maxSamples)
	}
	s := scratchPool.Get()
	defer scratchPool.Put(s)
	levels, t0, nPasses := s.plan(f, eb)
	// Reconstruct exactly as the decoder will, to find the outliers: the
	// coder leaves the decoder's coefficients in rg, the inverse transform
	// runs on them.
	s.rg.Reset(f.Nx, f.Ny, f.Nz)
	s.w.Reset()
	if nPasses > 0 {
		s.encodeSPECK(&s.w, s.rg.Data, s.g.Data, f.Nx, f.Ny, f.Nz, t0, nPasses)
	} else {
		clear(s.rg.Data)
	}
	s.rg.Inverse(levels)

	p := append(s.payload[:0], make([]byte, fixedLen)...)
	binary.LittleEndian.PutUint64(p[0:], math.Float64bits(t0))
	binary.LittleEndian.PutUint32(p[8:], uint32(levels))
	p[12] = byte(nPasses)
	// Outliers, written as they are found: delta-varint index +
	// zigzag-varint correction in units of eb/2 (the CSR-like sparse
	// encoding of SPERR's outlier pass).
	half, tol := eb/2, eb*0.95
	nOut, prev := 0, 0
	for i, v := range f.Data {
		err := float64(v) - s.rg.Data[i]
		if math.Abs(err) > tol {
			if q := int64(math.Round(err / half)); q != 0 {
				p = binary.AppendUvarint(p, uint64(i-prev))
				p = binary.AppendUvarint(p, zigzag(q))
				prev = i
				nOut++
			}
		}
	}
	binary.LittleEndian.PutUint32(p[13:], uint32(nOut))
	// SPECK stream: bit length then bytes.
	p = binary.LittleEndian.AppendUint64(p, s.w.BitLen())
	p = s.w.AppendTo(p)
	s.payload = p

	// DEFLATE at BestSpeed stores what it cannot shrink, a few bytes per
	// 64 KiB on top: one allocation holds the stream.
	out := compressor.AppendHeader(make([]byte, 0, 64+len(p)+len(p)>>10), compressor.Header{
		Magic: compressor.MagicSPERR, Nx: f.Nx, Ny: f.Ny, Nz: f.Nz, EB: eb,
	})
	out, err := zpool.AppendDeflate(out, p)
	if err != nil {
		return nil, fmt.Errorf("sperr: flate: %w", err)
	}
	return out, nil
}

// Decompress implements compressor.Codec (default safedec limits).
func (*Codec) Decompress(stream []byte) (*field.Field, error) {
	return decompress(stream, -1, true, safedec.Default())
}

// DecompressLimited implements compressor.Codec.
func (*Codec) DecompressLimited(stream []byte, lim safedec.Limits) (*field.Field, error) {
	return decompress(stream, -1, true, lim)
}

// DecompressProgressive reconstructs from only the first frac (0, 1] of
// the SPECK bit stream — the embedded-coding property of SPERR: any prefix
// of the coded stream is a valid, coarser reconstruction. The outlier
// corrections target the full-precision reconstruction and are therefore
// skipped for frac < 1, so the pointwise error bound does NOT hold;
// quality degrades gracefully with frac instead.
func DecompressProgressive(stream []byte, frac float64) (*field.Field, error) {
	if !(frac > 0) || frac > 1 {
		return nil, fmt.Errorf("sperr: invalid progressive fraction %g", frac)
	}
	return decompress(stream, frac, frac >= 1, safedec.Default())
}

// DecompressProgressiveLimited is DecompressProgressive with explicit
// safedec limits.
func DecompressProgressiveLimited(stream []byte, frac float64, lim safedec.Limits) (*field.Field, error) {
	if !(frac > 0) || frac > 1 {
		return nil, fmt.Errorf("sperr: invalid progressive fraction %g", frac)
	}
	return decompress(stream, frac, frac >= 1, lim)
}

// validT0 reports whether t0 can be the first threshold of nPasses bit
// planes: a positive finite power of two — the encoder only ever writes
// 2^⌊log₂ max|c|⌋ — whose last half step, t0/2^nPasses, is still a float64.
// That is what makes every reconstruction level exact; anything else decodes
// to a garbage or NaN field.
func validT0(t0 float64, nPasses int) bool {
	frac, exp := math.Frexp(t0)
	return frac == 0.5 && exp-1-nPasses >= -1074 //carol:allow floateq 0.5 is Frexp's exact answer for a power of two
}

// decompress implements both full and progressive decoding. speckFrac < 0
// decodes everything.
func decompress(stream []byte, speckFrac float64, applyOutliers bool, lim safedec.Limits) (*field.Field, error) {
	lim = lim.Norm()
	h, rest, err := compressor.ParseHeaderLimited(stream, compressor.MagicSPERR, lim)
	if err != nil {
		return nil, err
	}
	n := h.Nx * h.Ny * h.Nz
	if n > maxSamples {
		return nil, fmt.Errorf("%w: sperr grid of %d samples: %w", compressor.ErrBadStream, n, safedec.ErrLimit)
	}
	s := scratchPool.Get()
	defer scratchPool.Put(s)
	payload, err := zpool.InflateTail(s.payload[:0], rest, int64(n), lim)
	if err != nil {
		return nil, fmt.Errorf("%w: sperr lossless tail: %w", compressor.ErrBadStream, err)
	}
	s.payload = payload
	if len(payload) < fixedLen {
		return nil, fmt.Errorf("%w: sperr payload truncated", compressor.ErrBadStream)
	}
	t0 := math.Float64frombits(binary.LittleEndian.Uint64(payload[0:]))
	levels := int(binary.LittleEndian.Uint32(payload[8:]))
	nPasses := int(payload[12])
	nOut := int(binary.LittleEndian.Uint32(payload[13:]))
	if levels < 0 || levels > 40 || nPasses > maxPasses {
		return nil, fmt.Errorf("%w: sperr header fields", compressor.ErrBadStream)
	}
	if nPasses > 0 && !validT0(t0, nPasses) {
		return nil, fmt.Errorf("%w: sperr first threshold %g over %d planes", compressor.ErrBadStream, t0, nPasses)
	}
	if nOut < 0 || nOut > n {
		return nil, fmt.Errorf("%w: sperr outlier count %d", compressor.ErrBadStream, nOut)
	}
	// Each outlier costs at least two varint bytes; a count the remaining
	// payload cannot back is rejected before the list is sized.
	p := payload[fixedLen:]
	if nOut*2 > len(p) {
		return nil, fmt.Errorf("%w: sperr outlier count %d exceeds payload", compressor.ErrBadStream, nOut)
	}
	s.outliers = zpool.Sized(s.outliers, nOut)
	prev := 0
	for i := range s.outliers {
		d, dn := binary.Uvarint(p)
		z, zn := binary.Uvarint(p[max(dn, 0):])
		if dn <= 0 || zn <= 0 {
			return nil, fmt.Errorf("%w: sperr outlier %d truncated or overlong", compressor.ErrBadStream, i)
		}
		p = p[dn+zn:]
		// Bound the delta before the signed add: a 64-bit delta could wrap
		// prev negative and index the grid out of range from below.
		if d > uint64(n) {
			return nil, fmt.Errorf("%w: sperr outlier delta %d out of range", compressor.ErrBadStream, d)
		}
		prev += int(d)
		if prev >= n {
			return nil, fmt.Errorf("%w: sperr outlier index %d out of range", compressor.ErrBadStream, prev)
		}
		s.outliers[i] = outlier{prev, unzig(z)}
	}
	if len(p) < 8 {
		return nil, fmt.Errorf("%w: sperr speck length truncated", compressor.ErrBadStream)
	}
	speckBits, speckBytes := binary.LittleEndian.Uint64(p), p[8:]
	if speckBits > uint64(len(speckBytes))*8 {
		return nil, fmt.Errorf("%w: sperr speck bit length", compressor.ErrBadStream)
	}

	s.g.Reset(h.Nx, h.Ny, h.Nz)
	if nPasses > 0 {
		// A progressive decode is a full one whose reader ends early.
		partial := speckFrac >= 0 && speckFrac < 1
		if partial {
			speckBits = uint64(speckFrac * float64(speckBits))
		}
		var r bitstream.Reader
		r.Reset(speckBytes, speckBits)
		if err := s.decodeSPECK(&r, s.g.Data, h.Nx, h.Ny, h.Nz, t0, nPasses, partial); err != nil {
			return nil, err
		}
	} else {
		clear(s.g.Data)
	}
	s.g.Inverse(levels)
	if applyOutliers {
		half := h.EB / 2
		for _, o := range s.outliers {
			s.g.Data[o.idx] += float64(o.q) * half
		}
	}
	f := field.New("sperr", h.Nx, h.Ny, h.Nz)
	for i, v := range s.g.Data {
		f.Data[i] = float32(v)
	}
	return f, nil
}

// EstimateSampledBits performs the SECRE SPERR surrogate computation on f:
// wavelet transform + SPECK coding only (no reconstruction, no outlier
// pass, no DEFLATE), returning the SPECK payload bits produced. Callers pass
// an already block-sampled field and extrapolate.
func EstimateSampledBits(f *field.Field, eb float64) uint64 {
	s := scratchPool.Get()
	defer scratchPool.Put(s)
	_, t0, nPasses := s.plan(f, eb)
	if nPasses == 0 {
		return 8
	}
	s.w.Reset()
	s.encodeSPECK(&s.w, nil, s.g.Data, f.Nx, f.Ny, f.Nz, t0, nPasses)
	return s.w.BitLen()
}
