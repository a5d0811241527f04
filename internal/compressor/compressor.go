// Package compressor defines the error-bounded lossy compressor abstraction
// shared by the four compressor implementations (SZx, ZFP, SZ3, SPERR), the
// SECRE surrogate estimators, and the FXRZ/CAROL frameworks, plus the stream
// header and measurement helpers they all use.
package compressor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"carol/internal/bitstream"
	"carol/internal/field"
	"carol/internal/safedec"
)

// Codec is an error-bounded lossy compressor. Compress must guarantee that
// every reconstructed sample differs from the original by at most eb
// (absolute error bound).
type Codec interface {
	// Name returns the compressor's short identifier ("szx", "zfp", ...).
	Name() string
	// Compress encodes f under absolute error bound eb > 0.
	Compress(f *field.Field, eb float64) ([]byte, error)
	// Decompress reconstructs the field encoded in stream.
	Decompress(stream []byte) (*field.Field, error)
	// DecompressLimited is Decompress refusing (with an error wrapping
	// safedec.ErrLimit) any decode whose header-claimed sizes exceed lim.
	DecompressLimited(stream []byte, lim safedec.Limits) (*field.Field, error)
}

// Estimator predicts the compression ratio a Codec would achieve without
// producing (or retaining) a full compressed stream. SECRE surrogates
// implement this.
type Estimator interface {
	// Name returns the underlying compressor's identifier.
	Name() string
	// EstimateRatio predicts the compression ratio of the matching Codec on
	// f at absolute error bound eb.
	EstimateRatio(f *field.Field, eb float64) (float64, error)
}

// ErrBadStream is returned by Decompress implementations on malformed input.
// It belongs to the safedec taxonomy — errors.Is(ErrBadStream,
// safedec.ErrCorrupt) is true — so every decoder error wrapped with %w is
// classifiable by safedec.Classify without touching the wrap sites.
var ErrBadStream error = badStreamError{}

type badStreamError struct{}

func (badStreamError) Error() string { return "compressor: malformed stream" }

func (badStreamError) Is(target error) bool { return target == safedec.ErrCorrupt }

// Ratio returns the compression ratio achieved by stream on f
// (original bytes / compressed bytes).
func Ratio(f *field.Field, stream []byte) float64 {
	if len(stream) == 0 {
		return 0
	}
	return float64(f.SizeBytes()) / float64(len(stream))
}

// AbsBound converts a value-range-relative error bound to an absolute one
// for f. A rel of 1e-3 means 0.1% of the field's value range. Fields with
// zero range use rel directly so eb stays positive.
func AbsBound(f *field.Field, rel float64) float64 {
	return RangeBound(f.ValueRange(), rel)
}

// AbsBounds is AbsBound at each of rels, bit for bit, from one scan of
// f's value range: the absolute bounds of an error-bound sweep.
func AbsBounds(f *field.Field, rels []float64) []float64 {
	r := f.ValueRange()
	out := make([]float64, len(rels))
	for i, rel := range rels {
		out[i] = RangeBound(r, rel)
	}
	return out
}

// RangeBound is AbsBound for a field whose value range is r.
func RangeBound(r, rel float64) float64 {
	if r <= 0 {
		return rel
	}
	return rel * r
}

// CheckBound verifies that g reconstructs f within eb at every sample and
// returns the first violation found. The slack term covers the half-ulp
// rounding incurred by storing reconstructions as float32 plus a small
// relative margin for boundary-exact quantization.
func CheckBound(f, g *field.Field, eb float64) error {
	var maxAbs float64
	for _, v := range f.Data {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	slack := eb*1e-5 + maxAbs*math.Pow(2, -22)
	return f.Equalish(g, eb+slack)
}

// MaxAbsErr returns the largest absolute reconstruction error.
func MaxAbsErr(f, g *field.Field) float64 {
	var m float64
	for i := range f.Data {
		d := math.Abs(float64(f.Data[i]) - float64(g.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// NRMSE returns the root-mean-square reconstruction error normalized by
// the original field's value range — the headline fidelity metric of
// SDRBench-style evaluations.
func NRMSE(f, g *field.Field) float64 {
	var mse float64
	for i := range f.Data {
		d := float64(f.Data[i]) - float64(g.Data[i])
		mse += d * d
	}
	mse /= float64(len(f.Data))
	r := f.ValueRange()
	if r == 0 { //carol:allow floateq constant field has exactly zero range
		if mse == 0 { //carol:allow floateq zero error on a constant field is exact
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(mse) / r
}

// Pearson returns the Pearson correlation coefficient between original and
// reconstructed samples (1 for a perfect linear relationship).
func Pearson(f, g *field.Field) float64 {
	n := float64(len(f.Data))
	var sf, sg, sff, sgg, sfg float64
	for i := range f.Data {
		a, b := float64(f.Data[i]), float64(g.Data[i])
		sf += a
		sg += b
		sff += a * a
		sgg += b * b
		sfg += a * b
	}
	cov := sfg/n - (sf/n)*(sg/n)
	vf := sff/n - (sf/n)*(sf/n)
	vg := sgg/n - (sg/n)*(sg/n)
	if vf <= 0 || vg <= 0 {
		if vf == vg { //carol:allow floateq both-degenerate-variance case check
			return 1 // both constant (and equal up to the bound)
		}
		return 0
	}
	return cov / math.Sqrt(vf*vg)
}

// PSNR returns the peak signal-to-noise ratio of the reconstruction in dB.
func PSNR(f, g *field.Field) float64 {
	var mse float64
	for i := range f.Data {
		d := float64(f.Data[i]) - float64(g.Data[i])
		mse += d * d
	}
	mse /= float64(len(f.Data))
	if mse == 0 { //carol:allow floateq lossless reconstruction yields exactly zero MSE
		return math.Inf(1)
	}
	r := f.ValueRange()
	if r == 0 { //carol:allow floateq constant field has exactly zero range
		return math.Inf(1)
	}
	return 20*math.Log10(r) - 10*math.Log10(mse)
}

// Header is the common stream prefix every codec writes: a magic byte
// identifying the codec, grid dimensions, and the absolute error bound
// used. The encoded form carries an FNV-1a checksum so that header
// corruption (bit rot, truncated transfers) is detected before the decoder
// trusts the dimensions for allocations.
type Header struct {
	Magic byte
	Nx    int
	Ny    int
	Nz    int
	EB    float64
}

// HeaderLen is the encoded size of Header (fields + checksum): the bytes
// every codec stream starts with.
const HeaderLen = 1 + 3*4 + 8 + 4

// headerSum computes the FNV-1a checksum of the header field bytes.
func headerSum(buf []byte) uint32 {
	var h uint32 = 2166136261
	for _, b := range buf {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// AppendHeader serializes h onto dst.
func AppendHeader(dst []byte, h Header) []byte {
	var buf [HeaderLen]byte
	buf[0] = h.Magic
	binary.LittleEndian.PutUint32(buf[1:], uint32(h.Nx))
	binary.LittleEndian.PutUint32(buf[5:], uint32(h.Ny))
	binary.LittleEndian.PutUint32(buf[9:], uint32(h.Nz))
	binary.LittleEndian.PutUint64(buf[13:], math.Float64bits(h.EB))
	binary.LittleEndian.PutUint32(buf[21:], headerSum(buf[:21]))
	return append(dst, buf[:]...)
}

// SealBits assembles the stream of a bit-packed codec (szx, zfp, szp):
// header, big-endian bit length of the payload, payload. The buffer is sized
// once and the payload copied once.
func SealBits(h Header, w *bitstream.Writer) []byte {
	bits := w.BitLen()
	out := make([]byte, 0, HeaderLen+8+int((bits+7)/8))
	out = AppendHeader(out, h)
	out = binary.BigEndian.AppendUint64(out, bits)
	return w.AppendTo(out)
}

// ParseHeader decodes a Header and returns the remaining payload, under
// the default safedec limits.
func ParseHeader(stream []byte, wantMagic byte) (Header, []byte, error) {
	return ParseHeaderLimited(stream, wantMagic, safedec.Default())
}

// ParseHeaderLimited decodes a Header and returns the remaining payload.
// The header-claimed dimensions are validated against lim before any
// caller allocates reconstruction buffers from them.
func ParseHeaderLimited(stream []byte, wantMagic byte, lim safedec.Limits) (Header, []byte, error) {
	if len(stream) < HeaderLen {
		return Header{}, nil, fmt.Errorf("%w: short header: %w", ErrBadStream, safedec.ErrTruncated)
	}
	if got := binary.LittleEndian.Uint32(stream[21:]); got != headerSum(stream[:21]) {
		return Header{}, nil, fmt.Errorf("%w: header checksum mismatch", ErrBadStream)
	}
	h := Header{
		Magic: stream[0],
		Nx:    int(binary.LittleEndian.Uint32(stream[1:])),
		Ny:    int(binary.LittleEndian.Uint32(stream[5:])),
		Nz:    int(binary.LittleEndian.Uint32(stream[9:])),
		EB:    math.Float64frombits(binary.LittleEndian.Uint64(stream[13:])),
	}
	if h.Magic != wantMagic {
		return Header{}, nil, fmt.Errorf("%w: magic %#x, want %#x", ErrBadStream, h.Magic, wantMagic)
	}
	if _, err := lim.Elements(h.Nx, h.Ny, h.Nz); err != nil {
		return Header{}, nil, fmt.Errorf("compressor: header dims: %w", err)
	}
	if !(h.EB > 0) || math.IsInf(h.EB, 0) {
		return Header{}, nil, fmt.Errorf("%w: bad error bound %g", ErrBadStream, h.EB)
	}
	return h, stream[HeaderLen:], nil
}

// Magic bytes for the four codecs.
const (
	MagicSZx   byte = 0xA1
	MagicZFP   byte = 0xA2
	MagicSZ3   byte = 0xA3
	MagicSPERR byte = 0xA4
)

// ErrNonFinite is wrapped by every refusal of a field holding a NaN or ±Inf
// sample: the caller's data, which no codec and no retry can serve.
var ErrNonFinite = errors.New("compressor: field contains non-finite samples")

// ValidateArgs performs the shared argument checks for Compress.
func ValidateArgs(f *field.Field, eb float64) error {
	if f == nil || f.Len() == 0 {
		return errors.New("compressor: empty field")
	}
	if err := ValidateBound(eb); err != nil {
		return err
	}
	if !f.Finite() {
		return ErrNonFinite
	}
	return nil
}

// ValidateBound is the error-bound half of ValidateArgs, for callers that
// check one field once and many bounds after.
func ValidateBound(eb float64) error {
	if !(eb > 0) || math.IsInf(eb, 0) {
		return fmt.Errorf("compressor: invalid error bound %g", eb)
	}
	return nil
}
