// Package szp reimplements the cuSZp ultra-fast error-bounded lossy
// compressor (Huang et al., SC'23) in pure Go. The CAROL paper's background
// section lists cuSZp alongside SZx in the delta-based family and its
// experimental-setup section names SZP among the reference compressors;
// this repository ships it as the extension codec beyond the four the
// paper's tables evaluate.
//
// Pipeline (following cuSZp's design): linear quantization of every sample
// under the error bound, first-order delta coding of the quantization
// integers in 32-sample blocks, a zero-block shortcut for runs of identical
// quantized values, and per-block fixed-length bit packing of the
// zigzag-coded deltas.
package szp

import (
	"fmt"
	"math"
	mbits "math/bits"

	"carol/internal/bitstream"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/safedec"
)

// BlockSize is the number of consecutive samples per block (cuSZp's
// per-thread chunk).
const BlockSize = 32

// MagicSZP identifies szp streams (extension codec, outside the four the
// compressor package predefines).
const MagicSZP byte = 0xA5

// maxQuant bounds the quantization integers; samples quantizing outside are
// stored raw (cuSZp assumes well-scaled inputs; we keep the bound anyway).
const maxQuant = 1 << 42

// rawWidth is the sentinel block width marking a raw (unquantizable) block.
const rawWidth = 63

// Codec is the SZP compressor.
type Codec struct{}

// New returns an SZP codec.
func New() *Codec { return &Codec{} }

// Name implements compressor.Codec.
func (*Codec) Name() string { return "szp" }

var _ compressor.Codec = (*Codec)(nil)

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
func unzig(u uint64) int64  { return int64(u>>1) ^ -int64(u&1) }

// Compress implements compressor.Codec.
func (*Codec) Compress(f *field.Field, eb float64) ([]byte, error) {
	if err := compressor.ValidateArgs(f, eb); err != nil {
		return nil, err
	}
	w := bitstream.NewWriter(f.SizeBytes() / 4)
	twoEB := 2 * eb
	prev := int64(0)
	var quants [BlockSize]int64
	for start := 0; start < len(f.Data); start += BlockSize {
		end := start + BlockSize
		if end > len(f.Data) {
			end = len(f.Data)
		}
		block := f.Data[start:end]
		// Quantize the block; bail to raw if any sample is out of range.
		raw := false
		for i, v := range block {
			q := math.Round(float64(v) / twoEB)
			if math.Abs(q) >= maxQuant {
				raw = true
				break
			}
			quants[i] = int64(q)
		}
		if raw {
			// 1 raw flag bit + samples verbatim; prev resets to 0 so the
			// decoder stays in sync without decoding the raw values.
			w.WriteBit(1)
			for _, v := range block {
				w.WriteBits(uint64(math.Float32bits(v)), 32)
			}
			prev = 0
			continue
		}
		w.WriteBit(0)
		// Delta-code against the running previous quantized value.
		var width uint
		allZero := true
		p := prev
		for i := range block {
			d := quants[i] - p
			p = quants[i]
			if d != 0 {
				allZero = false
			}
			if wb := uint(mbits.Len64(zigzag(d))); wb > width {
				width = wb
			}
		}
		if allZero {
			// Zero block: every sample repeats the previous value.
			w.WriteBit(1)
			continue
		}
		w.WriteBit(0)
		w.WriteBits(uint64(width), 6)
		p = prev
		for i := range block {
			d := quants[i] - p
			p = quants[i]
			w.WriteBits(zigzag(d), width)
		}
		prev = p
	}
	return compressor.SealBits(compressor.Header{
		Magic: MagicSZP, Nx: f.Nx, Ny: f.Ny, Nz: f.Nz, EB: eb,
	}, w), nil
}

// Decompress implements compressor.Codec (default safedec limits).
func (c *Codec) Decompress(stream []byte) (*field.Field, error) {
	return c.DecompressLimited(stream, safedec.Default())
}

// DecompressLimited implements compressor.Codec.
func (*Codec) DecompressLimited(stream []byte, lim safedec.Limits) (*field.Field, error) {
	h, rest, err := compressor.ParseHeaderLimited(stream, MagicSZP, lim)
	if err != nil {
		return nil, err
	}
	sr := safedec.NewReader(rest)
	bits, err := sr.BE64("szp bit length")
	if err != nil {
		return nil, fmt.Errorf("%w: szp missing bit length: %w", compressor.ErrBadStream, err)
	}
	payload := sr.Rest()
	if bits > uint64(len(payload))*8 {
		return nil, fmt.Errorf("%w: szp bit length exceeds payload", compressor.ErrBadStream)
	}
	r := bitstream.NewReader(payload, bits)
	f := field.New("szp", h.Nx, h.Ny, h.Nz)
	twoEB := 2 * h.EB
	prev := int64(0)
	for start := 0; start < len(f.Data); start += BlockSize {
		end := start + BlockSize
		if end > len(f.Data) {
			end = len(f.Data)
		}
		block := f.Data[start:end]
		rawFlag, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("%w: szp raw flag: %w", compressor.ErrBadStream, err)
		}
		if rawFlag == 1 {
			for i := range block {
				b, err := r.ReadBits(32)
				if err != nil {
					return nil, fmt.Errorf("%w: szp raw sample: %w", compressor.ErrBadStream, err)
				}
				block[i] = math.Float32frombits(uint32(b))
			}
			prev = 0
			continue
		}
		zeroFlag, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("%w: szp zero flag: %w", compressor.ErrBadStream, err)
		}
		if zeroFlag == 1 {
			v := float32(float64(prev) * twoEB)
			for i := range block {
				block[i] = v
			}
			continue
		}
		w64, err := r.ReadBits(6)
		if err != nil {
			return nil, fmt.Errorf("%w: szp width: %w", compressor.ErrBadStream, err)
		}
		width := uint(w64)
		if width == 0 || width == rawWidth || width > 44 {
			return nil, fmt.Errorf("%w: szp invalid width %d", compressor.ErrBadStream, width)
		}
		for i := range block {
			u, err := r.ReadBits(width)
			if err != nil {
				return nil, fmt.Errorf("%w: szp delta: %w", compressor.ErrBadStream, err)
			}
			prev += unzig(u)
			block[i] = float32(float64(prev) * twoEB)
		}
	}
	return f, nil
}

// EstimateBlockBits returns the exact payload bits the encoder would emit
// for one block given the previous block's trailing quantized value; the
// SECRE-style surrogate samples blocks and extrapolates with this.
func EstimateBlockBits(block []float32, eb float64, prev int64) (bits uint64, lastQ int64) {
	twoEB := 2 * eb
	var width uint
	allZero := true
	p := prev
	for _, v := range block {
		q := math.Round(float64(v) / twoEB)
		if math.Abs(q) >= maxQuant {
			return 1 + 32*uint64(len(block)), 0
		}
		d := int64(q) - p
		p = int64(q)
		if d != 0 {
			allZero = false
		}
		if wb := uint(mbits.Len64(zigzag(d))); wb > width {
			width = wb
		}
	}
	if allZero {
		return 2, p
	}
	return 2 + 6 + uint64(width)*uint64(len(block)), p
}
