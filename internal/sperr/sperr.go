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
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

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

// region is an axis-aligned box of coefficients.
type region struct{ x, y, z, w, h, d int }

func (r region) leaf() bool { return r.w == 1 && r.h == 1 && r.d == 1 }

// children splits r in half along every dimension of size >= 2, in a
// deterministic order shared by encoder and decoder.
func (r region) children(out []region) []region {
	hw := (r.w + 1) / 2
	hh := (r.h + 1) / 2
	hd := (r.d + 1) / 2
	for dz := 0; dz < 2; dz++ {
		z0, d := r.z, hd
		if dz == 1 {
			if r.d < 2 {
				continue
			}
			z0, d = r.z+hd, r.d-hd
		} else if r.d < 2 {
			d = r.d
		}
		for dy := 0; dy < 2; dy++ {
			y0, h := r.y, hh
			if dy == 1 {
				if r.h < 2 {
					continue
				}
				y0, h = r.y+hh, r.h-hh
			} else if r.h < 2 {
				h = r.h
			}
			for dx := 0; dx < 2; dx++ {
				x0, w := r.x, hw
				if dx == 1 {
					if r.w < 2 {
						continue
					}
					x0, w = r.x+hw, r.w-hw
				} else if r.w < 2 {
					w = r.w
				}
				out = append(out, region{x0, y0, z0, w, h, d})
			}
		}
	}
	return out
}

// qreg pairs a region with its node index in the encoder's max tree, so
// significance lookups during coding are a single slice load.
type qreg struct {
	r    region
	node int32
}

// spEncoder holds the reusable SPECK encoder state: the max tree (stored as
// flat arrays over a breadth-first node enumeration rather than the former
// map[region]float64, which dominated the compressor's allocation profile)
// and the coder's working lists. Values are pooled; a zero spEncoder is
// ready to use.
type spEncoder struct {
	regs     []region  // BFS region of each node (build-time scratch)
	max      []float64 // max |coefficient| of each node's region
	firstKid []int32   // index of first child; children are contiguous
	nKids    []uint8
	queue    []qreg
	lis      []qreg
	lsp      []lspEntry
}

var spEncPool = sync.Pool{New: func() any { return &spEncoder{} }}

// buildTree enumerates every region reachable from the root via children()
// breadth-first and computes each one's max |coefficient| bottom-up. The
// node numbering is deterministic (children() order), so the coder can
// carry node indices alongside the regions it splits.
func (e *spEncoder) buildTree(coeffs []float64, nx, ny, nz int) {
	e.regs = append(e.regs[:0], region{0, 0, 0, nx, ny, nz})
	e.firstKid = e.firstKid[:0]
	e.nKids = e.nKids[:0]
	var kids [8]region
	for i := 0; i < len(e.regs); i++ {
		r := e.regs[i]
		if r.leaf() {
			e.firstKid = append(e.firstKid, -1)
			e.nKids = append(e.nKids, 0)
			continue
		}
		cs := r.children(kids[:0])
		e.firstKid = append(e.firstKid, int32(len(e.regs)))
		e.nKids = append(e.nKids, uint8(len(cs)))
		e.regs = append(e.regs, cs...)
	}
	n := len(e.regs)
	if cap(e.max) < n {
		e.max = make([]float64, n)
	} else {
		e.max = e.max[:n]
	}
	// Children always follow their parent in BFS order, so one reverse scan
	// sees every child before its parent.
	for i := n - 1; i >= 0; i-- {
		r := e.regs[i]
		if r.leaf() {
			e.max[i] = math.Abs(coeffs[(r.z*ny+r.y)*nx+r.x])
			continue
		}
		var m float64
		k0 := e.firstKid[i]
		for j := k0; j < k0+int32(e.nKids[i]); j++ {
			if e.max[j] > m {
				m = e.max[j]
			}
		}
		e.max[i] = m
	}
}

// lspEntry is a coefficient that has become significant.
type lspEntry struct {
	idx  int
	pass int
}

// encodeSPECK writes the set-partitioning bit-plane code for coeffs and
// fills recon (len(coeffs), zeroed by the caller) with the per-coefficient
// quantized magnitudes the decoder will arrive at (needed for the outlier
// pass). All coder scratch is pooled; the emitted bits are identical to the
// historical map-based implementation.
func encodeSPECK(w *bitstream.Writer, recon, coeffs []float64, nx, ny, nz int, t0 float64, nPasses int) {
	e := spEncPool.Get().(*spEncoder)
	defer spEncPool.Put(e)
	e.buildTree(coeffs, nx, ny, nz)
	e.lis = append(e.lis[:0], qreg{region{0, 0, 0, nx, ny, nz}, 0})
	lsp := e.lsp[:0]
	T := t0
	var kids [8]region
	for pass := 0; pass < nPasses; pass++ {
		// Sorting pass: last pass's insignificant list is this pass's queue;
		// the other buffer collects the still-insignificant sets.
		e.queue, e.lis = e.lis, e.queue[:0]
		queue, lis := e.queue, e.lis
		for qi := 0; qi < len(queue); qi++ {
			qr := queue[qi]
			if e.max[qr.node] >= T {
				w.WriteBit(1)
				if qr.r.leaf() {
					idx := (qr.r.z*ny+qr.r.y)*nx + qr.r.x
					v := coeffs[idx]
					if v < 0 {
						w.WriteBit(1)
					} else {
						w.WriteBit(0)
					}
					lsp = append(lsp, lspEntry{idx, pass})
					mag := 1.5 * T
					if v < 0 {
						mag = -mag
					}
					recon[idx] = mag
				} else {
					k0 := e.firstKid[qr.node]
					for ci, c := range qr.r.children(kids[:0]) {
						queue = append(queue, qreg{c, k0 + int32(ci)})
					}
				}
			} else {
				w.WriteBit(0)
				lis = append(lis, qr)
			}
		}
		e.queue, e.lis = queue, lis
		// Refinement pass for previously significant coefficients.
		for _, en := range lsp {
			if en.pass == pass {
				continue
			}
			mag := math.Abs(coeffs[en.idx])
			// Bit of |coef| at the current plane.
			b := uint(0)
			if math.Mod(mag, 2*T) >= T {
				b = 1
			}
			w.WriteBit(b)
			step := T / 2
			if b == 0 {
				step = -step
			}
			if recon[en.idx] < 0 {
				recon[en.idx] -= step
			} else {
				recon[en.idx] += step
			}
		}
		T /= 2
	}
	e.lsp = lsp
}

// spDecoder holds the reusable SPECK decoder working lists. Values are
// pooled; a zero spDecoder is ready to use.
type spDecoder struct {
	queue []region
	lis   []region
	lsp   []lspEntry
}

var spDecPool = sync.Pool{New: func() any { return &spDecoder{} }}

// decodeSPECK mirrors encodeSPECK, reconstructing into recon (length
// nx*ny*nz, zeroed by the caller). budget < 0 decodes the whole stream; a
// non-negative budget stops after that many bits, leaving the partial
// (embedded-prefix) reconstruction — SPERR's progressive-decode property.
func decodeSPECK(r *bitstream.Reader, recon []float64, nx, ny, nz int, t0 float64, nPasses int, budget int64) error {
	d := spDecPool.Get().(*spDecoder)
	defer spDecPool.Put(d)
	d.lis = append(d.lis[:0], region{0, 0, 0, nx, ny, nz})
	lsp := d.lsp[:0]
	defer func() { d.lsp = lsp }()
	T := t0
	var kids [8]region
	var consumed int64
	budgetHit := false
	grab := func() (uint, error) {
		if budget >= 0 && consumed >= budget {
			budgetHit = true
			return 0, bitstream.ErrShortStream
		}
		b, err := r.ReadBit()
		if err == nil {
			consumed++
		}
		return b, err
	}
	for pass := 0; pass < nPasses; pass++ {
		d.queue, d.lis = d.lis, d.queue[:0]
		queue, lis := d.queue, d.lis
		for qi := 0; qi < len(queue); qi++ {
			rg := queue[qi]
			bit, err := grab()
			if err != nil {
				d.queue, d.lis = queue, lis
				if budgetHit {
					return nil
				}
				return fmt.Errorf("%w: speck significance: %w", compressor.ErrBadStream, err)
			}
			if bit == 1 {
				if rg.leaf() {
					s, err := grab()
					if err != nil {
						d.queue, d.lis = queue, lis
						if budgetHit {
							return nil
						}
						return fmt.Errorf("%w: speck sign: %w", compressor.ErrBadStream, err)
					}
					idx := (rg.z*ny+rg.y)*nx + rg.x
					mag := 1.5 * T
					if s == 1 {
						mag = -mag
					}
					recon[idx] = mag
					lsp = append(lsp, lspEntry{idx, pass})
				} else {
					queue = append(queue, rg.children(kids[:0])...)
				}
			} else {
				lis = append(lis, rg)
			}
		}
		d.queue, d.lis = queue, lis
		for _, e := range lsp {
			if e.pass == pass {
				continue
			}
			b, err := grab()
			if err != nil {
				if budgetHit {
					return nil
				}
				return fmt.Errorf("%w: speck refinement: %w", compressor.ErrBadStream, err)
			}
			step := T / 2
			if b == 0 {
				step = -step
			}
			if recon[e.idx] < 0 {
				recon[e.idx] -= step
			} else {
				recon[e.idx] += step
			}
		}
		T /= 2
	}
	return nil
}

// outlier is one corrected sample.
type outlier struct {
	idx int
	q   int64 // correction in units of eb/2
}

// findOutliers returns the corrections needed to bring recon within eb of
// orig everywhere.
func findOutliers(orig []float32, recon []float64, eb float64) []outlier {
	var out []outlier
	half := eb / 2
	for i, v := range orig {
		err := float64(v) - recon[i]
		if math.Abs(err) > eb*0.95 {
			q := int64(math.Round(err / half))
			if q == 0 {
				continue
			}
			out = append(out, outlier{i, q})
		}
	}
	return out
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
func unzig(u uint64) int64  { return int64(u>>1) ^ -int64(u&1) }

// Compress implements compressor.Codec.
func (*Codec) Compress(f *field.Field, eb float64) ([]byte, error) {
	if err := compressor.ValidateArgs(f, eb); err != nil {
		return nil, err
	}
	nx, ny, nz := f.Nx, f.Ny, f.Nz
	g := wavelet.NewGrid(nx, ny, nz)
	for i, v := range f.Data {
		g.Data[i] = float64(v)
	}
	maxDim := nx
	if ny > maxDim {
		maxDim = ny
	}
	if nz > maxDim {
		maxDim = nz
	}
	levels := wavelet.Levels(maxDim)
	g.Forward(levels)

	var maxAbs float64
	for _, v := range g.Data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	w := bitstream.NewWriter(f.SizeBytes() / 8)
	var t0 float64
	nPasses := 0
	if maxAbs > 0 {
		tExp := math.Floor(math.Log2(maxAbs))
		t0 = math.Pow(2, tExp)
		tStop := eb / stopDivisor
		for T := t0; T >= tStop && nPasses < maxPasses; T /= 2 {
			nPasses++
		}
	}
	// Reconstruct to find outliers exactly as the decoder will: encodeSPECK
	// writes the quantized-magnitude reconstruction straight into the
	// (zero-initialized) grid that the inverse transform then runs on.
	rg := wavelet.NewGrid(nx, ny, nz)
	if nPasses > 0 {
		encodeSPECK(w, rg.Data, g.Data, nx, ny, nz, t0, nPasses)
	}
	rg.Inverse(levels)
	outliers := findOutliers(f.Data, rg.Data, eb)

	// Assemble payload.
	var payload bytes.Buffer
	var hdr [8 + 4 + 1 + 4]byte
	binary.LittleEndian.PutUint64(hdr[0:], math.Float64bits(t0))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(levels))
	hdr[12] = byte(nPasses)
	binary.LittleEndian.PutUint32(hdr[13:], uint32(len(outliers)))
	payload.Write(hdr[:])
	// Outliers: delta-varint index + zigzag-varint correction (the CSR-like
	// sparse encoding of SPERR's outlier pass).
	var vbuf [binary.MaxVarintLen64]byte
	prev := 0
	for _, o := range outliers {
		n := binary.PutUvarint(vbuf[:], uint64(o.idx-prev))
		payload.Write(vbuf[:n])
		prev = o.idx
		n = binary.PutUvarint(vbuf[:], zigzag(o.q))
		payload.Write(vbuf[:n])
	}
	// SPECK stream: bit length then bytes.
	var lbuf [8]byte
	binary.LittleEndian.PutUint64(lbuf[:], w.BitLen())
	payload.Write(lbuf[:])
	payload.Write(w.Bytes())

	out := compressor.AppendHeader(nil, compressor.Header{
		Magic: compressor.MagicSPERR, Nx: nx, Ny: ny, Nz: nz, EB: eb,
	})
	out, err := zpool.AppendDeflate(out, payload.Bytes())
	if err != nil {
		return nil, fmt.Errorf("sperr: flate: %w", err)
	}
	return out, nil
}

// Decompress implements compressor.Codec (default safedec limits).
func (*Codec) Decompress(stream []byte) (*field.Field, error) {
	return decompress(stream, -1, true, safedec.Default())
}

// DecompressLimited implements compressor.LimitedDecoder.
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

// decompress implements both full and progressive decoding. speckFrac < 0
// decodes everything.
func decompress(stream []byte, speckFrac float64, applyOutliers bool, lim safedec.Limits) (*field.Field, error) {
	lim = lim.Norm()
	h, rest, err := compressor.ParseHeaderLimited(stream, compressor.MagicSPERR, lim)
	if err != nil {
		return nil, err
	}
	payload, err := zpool.InflateTail(rest, int64(h.Nx)*int64(h.Ny)*int64(h.Nz), lim)
	if err != nil {
		return nil, fmt.Errorf("%w: sperr lossless tail: %w", compressor.ErrBadStream, err)
	}
	const fixed = 8 + 4 + 1 + 4
	if len(payload) < fixed {
		return nil, fmt.Errorf("%w: sperr payload truncated", compressor.ErrBadStream)
	}
	t0 := math.Float64frombits(binary.LittleEndian.Uint64(payload[0:]))
	levels := int(binary.LittleEndian.Uint32(payload[8:]))
	nPasses := int(payload[12])
	nOut := int(binary.LittleEndian.Uint32(payload[13:]))
	if levels < 0 || levels > 40 || nPasses > maxPasses {
		return nil, fmt.Errorf("%w: sperr header fields", compressor.ErrBadStream)
	}
	n := h.Nx * h.Ny * h.Nz
	if nOut < 0 || nOut > n {
		return nil, fmt.Errorf("%w: sperr outlier count %d", compressor.ErrBadStream, nOut)
	}
	// Each outlier costs at least two varint bytes; a count the remaining
	// payload cannot back is rejected before the slice is allocated.
	if nOut*2 > len(payload)-fixed {
		return nil, fmt.Errorf("%w: sperr outlier count %d exceeds payload", compressor.ErrBadStream, nOut)
	}
	br := bytes.NewReader(payload[fixed:])
	outliers := make([]outlier, nOut)
	prev := 0
	for i := range outliers {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: sperr outlier index: %w", compressor.ErrBadStream, err)
		}
		z, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: sperr outlier value: %w", compressor.ErrBadStream, err)
		}
		// Bound the delta before the signed add: a 64-bit delta could wrap
		// prev negative and index g.Data out of range from below.
		if d > uint64(n) {
			return nil, fmt.Errorf("%w: sperr outlier delta %d out of range", compressor.ErrBadStream, d)
		}
		prev += int(d)
		if prev >= n {
			return nil, fmt.Errorf("%w: sperr outlier index %d out of range", compressor.ErrBadStream, prev)
		}
		outliers[i] = outlier{prev, unzig(z)}
	}
	var lbuf [8]byte
	if _, err := io.ReadFull(br, lbuf[:]); err != nil {
		return nil, fmt.Errorf("%w: sperr speck length: %w", compressor.ErrBadStream, err)
	}
	speckBits := binary.LittleEndian.Uint64(lbuf[:])
	speckBytes := make([]byte, br.Len())
	if _, err := io.ReadFull(br, speckBytes); err != nil {
		return nil, fmt.Errorf("%w: sperr speck payload: %w", compressor.ErrBadStream, err)
	}
	if speckBits > uint64(len(speckBytes))*8 {
		return nil, fmt.Errorf("%w: sperr speck bit length", compressor.ErrBadStream)
	}

	g := wavelet.NewGrid(h.Nx, h.Ny, h.Nz)
	if nPasses > 0 {
		budget := int64(-1)
		if speckFrac >= 0 && speckFrac < 1 {
			budget = int64(speckFrac * float64(speckBits))
		}
		r := bitstream.NewReader(speckBytes, speckBits)
		if err := decodeSPECK(r, g.Data, h.Nx, h.Ny, h.Nz, t0, nPasses, budget); err != nil {
			return nil, err
		}
	}
	g.Inverse(levels)
	if applyOutliers {
		half := h.EB / 2
		for _, o := range outliers {
			g.Data[o.idx] += float64(o.q) * half
		}
	}
	f := field.New("sperr", h.Nx, h.Ny, h.Nz)
	for i, v := range g.Data {
		f.Data[i] = float32(v)
	}
	return f, nil
}

// EstimateSampledBits performs the SECRE SPERR surrogate computation on f:
// wavelet transform + SPECK coding only (no outlier pass, no DEFLATE),
// returning the SPECK payload bits produced. Callers pass an already
// block-sampled field and extrapolate.
func EstimateSampledBits(f *field.Field, eb float64) uint64 {
	nx, ny, nz := f.Nx, f.Ny, f.Nz
	g := wavelet.NewGrid(nx, ny, nz)
	for i, v := range f.Data {
		g.Data[i] = float64(v)
	}
	maxDim := nx
	if ny > maxDim {
		maxDim = ny
	}
	if nz > maxDim {
		maxDim = nz
	}
	levels := wavelet.Levels(maxDim)
	g.Forward(levels)
	var maxAbs float64
	for _, v := range g.Data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 { //carol:allow floateq all-zero coefficient plane is an exact case
		return 8
	}
	t0 := math.Pow(2, math.Floor(math.Log2(maxAbs)))
	nPasses := 0
	tStop := eb / stopDivisor
	for T := t0; T >= tStop && nPasses < maxPasses; T /= 2 {
		nPasses++
	}
	if nPasses == 0 {
		return 8
	}
	w := bitstream.NewWriter(len(f.Data) / 2)
	encodeSPECK(w, make([]float64, len(g.Data)), g.Data, nx, ny, nz, t0, nPasses)
	return w.BitLen()
}
