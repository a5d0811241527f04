// Package field defines the in-memory representation of scientific data
// fields used throughout the repository: a named, up-to-3-dimensional grid of
// float32 samples, plus the sampling primitives (strided and block-wise) that
// the SECRE surrogates and the feature extractors rely on.
//
// Layout: the linear index of grid point (x, y, z) is (z*Ny + y)*Nx + x —
// x is the fastest-varying dimension, as in the raw binary dumps of
// SDRBench-style datasets.
package field

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unsafe"
)

// Field is a named scalar field on a regular grid. 2D fields use Nz == 1 and
// 1D fields use Ny == Nz == 1.
type Field struct {
	Name string
	Nx   int
	Ny   int
	Nz   int
	Data []float32
}

// New allocates a zero-filled field with the given name and dimensions.
func New(name string, nx, ny, nz int) *Field {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("field: invalid dims %dx%dx%d", nx, ny, nz))
	}
	return &Field{Name: name, Nx: nx, Ny: ny, Nz: nz, Data: make([]float32, nx*ny*nz)}
}

// FromData wraps an existing sample slice. It panics if the slice length
// does not match the dimensions.
func FromData(name string, nx, ny, nz int, data []float32) *Field {
	if len(data) != nx*ny*nz {
		panic(fmt.Sprintf("field: %d samples for %dx%dx%d grid", len(data), nx, ny, nz))
	}
	return &Field{Name: name, Nx: nx, Ny: ny, Nz: nz, Data: data}
}

// Len returns the number of grid points.
func (f *Field) Len() int { return len(f.Data) }

// SizeBytes returns the uncompressed payload size in bytes.
func (f *Field) SizeBytes() int { return 4 * len(f.Data) }

// Dims reports the number of non-trivial dimensions (1, 2 or 3).
func (f *Field) Dims() int {
	d := 1
	if f.Ny > 1 {
		d = 2
	}
	if f.Nz > 1 {
		d = 3
	}
	return d
}

// Index returns the linear index of (x, y, z).
func (f *Field) Index(x, y, z int) int { return (z*f.Ny+y)*f.Nx + x }

// At returns the sample at (x, y, z).
func (f *Field) At(x, y, z int) float32 { return f.Data[(z*f.Ny+y)*f.Nx+x] }

// Set writes the sample at (x, y, z).
func (f *Field) Set(x, y, z int, v float32) { f.Data[(z*f.Ny+y)*f.Nx+x] = v }

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	data := make([]float32, len(f.Data))
	copy(data, f.Data)
	return &Field{Name: f.Name, Nx: f.Nx, Ny: f.Ny, Nz: f.Nz, Data: data}
}

// MinMax returns the smallest and largest samples, ±Inf included. NaNs are
// skipped; a field of only NaNs reports (0, 0).
func (f *Field) MinMax() (lo, hi float64) {
	lo, hi = minMax(math.Inf(1), math.Inf(-1), f.Data)
	if lo > hi { // no non-NaN samples
		return 0, 0
	}
	return lo, hi
}

// minMax widens [lo, hi] to cover data, skipping NaNs, and returns bit for
// bit what comparing every sample in order against lo and hi would (the
// serial loop in ref_test.go). Four float32 lanes compare independently; a
// NaN fails every comparison, so it is skipped as there. Lanes lose which of
// two equal samples came first, and the only equal floats with different
// bits are ±0: a zero extreme taken from data is the first zero in data.
func minMax(lo, hi float64, data []float32) (float64, float64) {
	inf := float32(math.Inf(1))
	l0, l1, l2, l3 := inf, inf, inf, inf
	h0, h1, h2, h3 := -inf, -inf, -inf, -inf
	rest := data
	for len(rest) >= 4 {
		a, b, c, d := rest[0], rest[1], rest[2], rest[3]
		rest = rest[4:]
		if a < l0 {
			l0 = a
		}
		if a > h0 {
			h0 = a
		}
		if b < l1 {
			l1 = b
		}
		if b > h1 {
			h1 = b
		}
		if c < l2 {
			l2 = c
		}
		if c > h2 {
			h2 = c
		}
		if d < l3 {
			l3 = d
		}
		if d > h3 {
			h3 = d
		}
	}
	for _, v := range rest {
		if v < l0 {
			l0 = v
		}
		if v > h0 {
			h0 = v
		}
	}
	if l := float64(min(l0, l1, l2, l3)); l < lo {
		lo = l
		if lo == 0 { //carol:allow floateq ±0 compare equal; the first zero's sign is the serial answer
			lo = firstZero(data)
		}
	}
	if h := float64(max(h0, h1, h2, h3)); h > hi {
		hi = h
		if hi == 0 { //carol:allow floateq ±0 compare equal; the first zero's sign is the serial answer
			hi = firstZero(data)
		}
	}
	return lo, hi
}

// firstZero returns the first sample of data equal to zero, which minMax's
// caller has seen to exist.
func firstZero(data []float32) float64 {
	for _, v := range data {
		if v == 0 { //carol:allow floateq looking for +0 or -0, whichever comes first
			return float64(v)
		}
	}
	return 0
}

// ValueRange returns max - min; compressors use it to convert value-range-
// relative error bounds into absolute bounds.
func (f *Field) ValueRange() float64 {
	lo, hi := f.MinMax()
	return hi - lo
}

// Mean returns the arithmetic mean of the samples.
func (f *Field) Mean() float64 {
	if len(f.Data) == 0 {
		return 0
	}
	var sum float64
	for _, v := range f.Data {
		sum += float64(v)
	}
	return sum / float64(len(f.Data))
}

// SampleStride returns a new field containing every stride-th point along
// each non-trivial dimension (point-wise sampling, as SECRE's SZ3 surrogate
// uses). stride must be >= 1.
func (f *Field) SampleStride(stride int) *Field {
	if stride < 1 {
		panic("field: stride must be >= 1")
	}
	strideY, strideZ := stride, stride
	if f.Ny == 1 {
		strideY = 1
	}
	if f.Nz == 1 {
		strideZ = 1
	}
	nx := (f.Nx + stride - 1) / stride
	ny := (f.Ny + strideY - 1) / strideY
	nz := (f.Nz + strideZ - 1) / strideZ
	out := New(f.Name+"/stride", nx, ny, nz)
	i := 0
	for z := 0; z < f.Nz; z += strideZ {
		for y := 0; y < f.Ny; y += strideY {
			for x := 0; x < f.Nx; x += stride {
				out.Data[i] = f.At(x, y, z)
				i++
			}
		}
	}
	return out
}

// BlockSpec describes block-wise sampling: cube blocks of Size elements per
// non-trivial dimension, keeping one block of every Every along each
// dimension (SECRE's SZx/ZFP/SPERR surrogates and CAROL's parallel feature
// extraction both sample this way).
type BlockSpec struct {
	Size  int // block edge length, >= 1
	Every int // keep 1 block of every `Every`, >= 1
}

// SampleBlocks gathers the kept blocks into a single contiguous field.
// Partial boundary blocks are clipped to the grid. The result preserves
// x-fastest ordering within each block, with blocks concatenated; for
// compression-ratio estimation this ordering is what block-structured
// compressors consume anyway.
func (f *Field) SampleBlocks(spec BlockSpec) *Field {
	if spec.Size < 1 || spec.Every < 1 {
		panic("field: invalid BlockSpec")
	}
	var data []float32
	stepX := spec.Size * spec.Every
	stepY, stepZ := stepX, stepX
	sizeY, sizeZ := spec.Size, spec.Size
	if f.Ny == 1 {
		stepY, sizeY = 1, 1
	}
	if f.Nz == 1 {
		stepZ, sizeZ = 1, 1
	}
	for bz := 0; bz < f.Nz; bz += stepZ {
		for by := 0; by < f.Ny; by += stepY {
			for bx := 0; bx < f.Nx; bx += stepX {
				zEnd := min(bz+sizeZ, f.Nz)
				yEnd := min(by+sizeY, f.Ny)
				xEnd := min(bx+spec.Size, f.Nx)
				for z := bz; z < zEnd; z++ {
					for y := by; y < yEnd; y++ {
						row := f.Index(bx, y, z)
						data = append(data, f.Data[row:row+(xEnd-bx)]...)
					}
				}
			}
		}
	}
	if len(data) == 0 {
		data = []float32{0}
	}
	return FromData(f.Name+"/blocks", len(data), 1, 1, data)
}

// WriteRaw writes the samples as little-endian float32, the format raw
// scientific dumps use.
func (f *Field) WriteRaw(w io.Writer) error {
	buf := make([]byte, 4*4096)
	i := 0
	for i < len(f.Data) {
		n := min(4096, len(f.Data)-i)
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint32(buf[4*j:], math.Float32bits(f.Data[i+j]))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return fmt.Errorf("field: write raw: %w", err)
		}
		i += n
	}
	return nil
}

// ParseDims parses a grid shape written NXxNYxNZ (case-insensitive "x");
// trailing dimensions default to 1, so "64" is 1D and "64x32" is 2D.
func ParseDims(s string) (nx, ny, nz int, err error) {
	parts := strings.Split(strings.ToLower(s), "x")
	vals := [3]int{1, 1, 1}
	if s == "" || len(parts) > 3 {
		return 0, 0, 0, fmt.Errorf("bad dims %q (want NXxNYxNZ)", s)
	}
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return 0, 0, 0, fmt.Errorf("bad dims %q (want NXxNYxNZ)", s)
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], nil
}

// littleEndian reports whether the host stores a float32 in the raw
// format's byte order, so that samples can take the raw bytes as they are.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// rawBytes views samples as the 4·len(samples) bytes of their storage.
func rawBytes(samples []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(samples))), 4*len(samples))
}

// swapWords reverses the bytes of every sample in place. On a big-endian
// host that turns samples holding the raw little-endian bytes into floats.
func swapWords(samples []float32) {
	words := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(samples))), len(samples))
	for i, w := range words {
		words[i] = bits.ReverseBytes32(w)
	}
}

// decodeRaw fills dst from the little-endian float32 bytes at the head of src.
func decodeRaw(dst []float32, src []byte) {
	copy(rawBytes(dst), src[:4*len(dst)])
	if !littleEndian {
		swapWords(dst)
	}
}

// ReadRaw reads nx*ny*nz little-endian float32 samples straight into the
// field's storage.
func ReadRaw(name string, nx, ny, nz int, r io.Reader) (*Field, error) {
	return ReadRawInto(name, nx, ny, nz, r, nil)
}

// ReadRawInto is ReadRaw into buf's array when it can hold the field, and
// into fresh storage otherwise. Every sample is overwritten, so what buf
// held does not matter; on an error its contents are unspecified.
func ReadRawInto(name string, nx, ny, nz int, r io.Reader, buf []float32) (*Field, error) {
	var f *Field
	if n := nx * ny * nz; nx > 0 && ny > 0 && nz > 0 && cap(buf) >= n {
		f = FromData(name, nx, ny, nz, buf[:n])
	} else {
		f = New(name, nx, ny, nz)
	}
	if _, err := io.ReadFull(r, rawBytes(f.Data)); err != nil {
		return nil, fmt.Errorf("field: read raw: %w", err)
	}
	if !littleEndian {
		swapWords(f.Data)
	}
	return f, nil
}

// DecodeRaw is ReadRaw for bytes already in memory. Like FromData it panics
// if raw is not exactly the grid's size, which its caller has checked.
func DecodeRaw(name string, nx, ny, nz int, raw []byte) *Field {
	f := New(name, nx, ny, nz)
	if len(raw) != 4*len(f.Data) {
		panic(fmt.Sprintf("field: %d raw bytes for %dx%dx%d grid", len(raw), nx, ny, nz))
	}
	decodeRaw(f.Data, raw)
	return f
}

// RawValueRange is ValueRange of the field whose little-endian float32
// samples are raw, computed strip by strip without building the field.
func RawValueRange(raw []byte) float64 {
	var strip [4096]float32
	lo, hi := math.Inf(1), math.Inf(-1)
	for len(raw) >= 4 {
		n := min(len(strip), len(raw)/4)
		decodeRaw(strip[:n], raw)
		lo, hi = minMax(lo, hi, strip[:n])
		raw = raw[4*n:]
	}
	if lo > hi { // no non-NaN samples
		return 0
	}
	return hi - lo
}

// Equalish reports whether every sample of g is within eps of the
// corresponding sample of f (used by round-trip tests).
func (f *Field) Equalish(g *Field, eps float64) error {
	if f.Nx != g.Nx || f.Ny != g.Ny || f.Nz != g.Nz {
		return errors.New("field: dimension mismatch")
	}
	for i := range f.Data {
		d := math.Abs(float64(f.Data[i]) - float64(g.Data[i]))
		if d > eps || math.IsNaN(d) {
			return fmt.Errorf("field: sample %d differs by %g (> %g)", i, d, eps)
		}
	}
	return nil
}
