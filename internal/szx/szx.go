// Package szx reimplements the SZx ultra-fast error-bounded lossy compressor
// (Yu et al., HPDC'22) in pure Go. SZx is the "delta-based" compressor of
// the CAROL evaluation: it splits the input into 1D blocks of 128 samples
// and encodes each block either as a constant (when the whole block fits
// within twice the error bound) or with a per-block fixed bit-width encoding
// of the samples' offsets from the block minimum — the byte/bit truncation
// of IEEE-754 payloads that gives SZx its speed.
//
// The encoded stream is self-describing: a common header followed by
// bit-packed blocks.
package szx

import (
	"fmt"
	"math"

	"carol/internal/bitstream"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/safedec"
)

// BlockSize is the number of consecutive samples per block (the value the
// SZx paper and the CAROL paper both use).
const BlockSize = 128

// rawWidth is the sentinel bit-width marking an uncompressed block.
const rawWidth = 63

// Codec is the SZx compressor. The zero value is ready to use.
type Codec struct{}

// New returns an SZx codec.
func New() *Codec { return &Codec{} }

// Name implements compressor.Codec.
func (*Codec) Name() string { return "szx" }

var _ compressor.Codec = (*Codec)(nil)

// Compress implements compressor.Codec.
func (*Codec) Compress(f *field.Field, eb float64) ([]byte, error) {
	if err := compressor.ValidateArgs(f, eb); err != nil {
		return nil, err
	}
	w := bitstream.NewWriter(f.SizeBytes() / 4)
	for start := 0; start < len(f.Data); start += BlockSize {
		end := start + BlockSize
		if end > len(f.Data) {
			end = len(f.Data)
		}
		encodeBlock(w, f.Data[start:end], eb)
	}
	return compressor.SealBits(compressor.Header{
		Magic: compressor.MagicSZx, Nx: f.Nx, Ny: f.Ny, Nz: f.Nz, EB: eb,
	}, w), nil
}

// encodeBlock writes one block.
//
// Layout: 1 flag bit; constant block: 32-bit float32 payload; otherwise
// 6-bit width, 32-bit float32 block minimum, then width bits per sample.
func encodeBlock(w *bitstream.Writer, block []float32, eb float64) {
	lo, hi := BlockExtrema(block)
	// Constant-block attempt: representative value must land every sample
	// within eb even after float32 rounding.
	mid := float32((float64(lo) + float64(hi)) / 2)
	if math.Abs(float64(hi)-float64(mid)) <= eb && math.Abs(float64(lo)-float64(mid)) <= eb {
		w.WriteBit(1)
		w.WriteBits(uint64(math.Float32bits(mid)), 32)
		return
	}
	w.WriteBit(0)
	// Fixed-width offset encoding from the block minimum.
	rng := float64(hi) - float64(lo)
	levels := math.Floor(rng/(2*eb)) + 1
	width := uint(math.Ceil(math.Log2(levels)))
	if width == 0 {
		width = 1
	}
	if width >= 32 {
		// Error bound finer than float32 resolution: store samples raw.
		w.WriteBits(rawWidth, 6)
		for _, v := range block {
			w.WriteBits(uint64(math.Float32bits(v)), 32)
		}
		return
	}
	w.WriteBits(uint64(width), 6)
	w.WriteBits(uint64(math.Float32bits(lo)), 32)
	// Pack as many codes as a word holds and hand the writer words, not
	// samples. The division stays a division: multiplying by a reciprocal
	// rounds differently and would change stream bytes. The quotient lies in
	// [0, 2^31) here (v >= lo, width < 32), where the conversion's
	// truncation is the floor.
	maxQ := uint64(1)<<width - 1
	for per := int(64 / width); len(block) > 0; {
		word := block[:min(per, len(block))]
		block = block[len(word):]
		var acc uint64
		for _, v := range word {
			q := uint64((float64(v) - float64(lo)) / (2 * eb))
			if q > maxQ {
				q = maxQ
			}
			acc = acc<<width | q
		}
		w.WriteBits(acc, width*uint(len(word)))
	}
}

// Decompress implements compressor.Codec (default safedec limits).
func (c *Codec) Decompress(stream []byte) (*field.Field, error) {
	return c.DecompressLimited(stream, safedec.Default())
}

// DecompressLimited implements compressor.Codec.
func (*Codec) DecompressLimited(stream []byte, lim safedec.Limits) (*field.Field, error) {
	h, rest, err := compressor.ParseHeaderLimited(stream, compressor.MagicSZx, lim)
	if err != nil {
		return nil, err
	}
	sr := safedec.NewReader(rest)
	bits, err := sr.BE64("szx bit length")
	if err != nil {
		return nil, fmt.Errorf("%w: missing bit length: %w", compressor.ErrBadStream, err)
	}
	payload := sr.Rest()
	if bits > uint64(len(payload))*8 {
		return nil, fmt.Errorf("%w: bit length %d exceeds payload", compressor.ErrBadStream, bits)
	}
	r := bitstream.NewReader(payload, bits)
	f := field.New("szx", h.Nx, h.Ny, h.Nz)
	for start := 0; start < len(f.Data); start += BlockSize {
		end := start + BlockSize
		if end > len(f.Data) {
			end = len(f.Data)
		}
		if err := decodeBlock(r, f.Data[start:end], h.EB); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func decodeBlock(r *bitstream.Reader, block []float32, eb float64) error {
	flag, err := r.ReadBit()
	if err != nil {
		return fmt.Errorf("%w: block flag: %w", compressor.ErrBadStream, err)
	}
	if flag == 1 {
		raw, err := r.ReadBits(32)
		if err != nil {
			return fmt.Errorf("%w: constant payload: %w", compressor.ErrBadStream, err)
		}
		c := math.Float32frombits(uint32(raw))
		for i := range block {
			block[i] = c
		}
		return nil
	}
	w64, err := r.ReadBits(6)
	if err != nil {
		return fmt.Errorf("%w: block width: %w", compressor.ErrBadStream, err)
	}
	width := uint(w64)
	if width == rawWidth {
		for i := range block {
			raw, err := r.ReadBits(32)
			if err != nil {
				return fmt.Errorf("%w: raw sample: %w", compressor.ErrBadStream, err)
			}
			block[i] = math.Float32frombits(uint32(raw))
		}
		return nil
	}
	if width == 0 || width >= 32 {
		return fmt.Errorf("%w: invalid block width %d", compressor.ErrBadStream, width)
	}
	loBits, err := r.ReadBits(32)
	if err != nil {
		return fmt.Errorf("%w: block min: %w", compressor.ErrBadStream, err)
	}
	lo := float64(math.Float32frombits(uint32(loBits)))
	// One length check for the block, then the codes come straight out of
	// the reader's window, as many as each window holds. Every pass makes
	// progress: a window holds min(57, Remaining) bits or more, width < 32,
	// and the check leaves a code's worth remaining while samples do.
	if r.Remaining() < uint64(width)*uint64(len(block)) {
		return fmt.Errorf("%w: sample code: %w", compressor.ErrBadStream, bitstream.ErrShortStream)
	}
	for i := 0; i < len(block); {
		win, avail := r.Peek()
		used := uint(0)
		for ; used+width <= avail && i < len(block); i++ {
			q := win >> (64 - width)
			win <<= width
			used += width
			block[i] = float32(lo + (float64(q)+0.5)*2*eb)
		}
		r.Skip(used)
	}
	return nil
}

// EstimateBlockBits returns the exact number of stream bits encodeBlock
// would produce for the given block, without writing anything. The SECRE
// SZx surrogate runs this on sampled blocks to extrapolate the ratio.
func EstimateBlockBits(block []float32, eb float64) uint64 {
	lo, hi := BlockExtrema(block)
	return BlockBits(lo, hi, len(block), eb)
}

// BlockExtrema returns the smallest and largest sample of a block: all that
// its encoded size depends on besides its length and the bound.
func BlockExtrema(block []float32) (lo, hi float32) {
	lo, hi = block[0], block[0]
	for _, v := range block[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// BlockBits is EstimateBlockBits for a block of n samples known by its
// extrema, so a caller that keeps them sizes the block at any bound
// without reading it again.
func BlockBits(lo, hi float32, n int, eb float64) uint64 {
	mid := float32((float64(lo) + float64(hi)) / 2)
	if math.Abs(float64(hi)-float64(mid)) <= eb && math.Abs(float64(lo)-float64(mid)) <= eb {
		return 1 + 32
	}
	rng := float64(hi) - float64(lo)
	levels := math.Floor(rng/(2*eb)) + 1
	width := uint64(math.Ceil(math.Log2(levels)))
	if width == 0 {
		width = 1
	}
	if width >= 32 {
		return 1 + 6 + 32*uint64(n)
	}
	return 1 + 6 + 32 + width*uint64(n)
}
