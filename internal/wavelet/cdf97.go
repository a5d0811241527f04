// Package wavelet implements the multi-level CDF 9/7 discrete wavelet
// transform (the transform SPERR uses) via the standard four-step lifting
// scheme with symmetric boundary extension. Transforms are provided for 1D
// signals and for 2D/3D grids as separable dimension-by-dimension passes.
//
// Every lifting step is the same expression per sample, x += c·(left+right),
// whichever routine evaluates it: liftLine walks one contiguous line with the
// two mirrored boundary taps written out, liftRows applies the step to whole
// rows at once for the axes whose neighbours are a stride apart. Samples of
// different lines never meet, so batching lines changes the order in which
// independent samples are visited and nothing about any one of them; the
// coefficients are bit-identical to the per-line definition kept in
// ref_test.go (FuzzGridMatchesReference).
package wavelet

import "fmt"

// CDF 9/7 lifting coefficients (Daubechies & Sweldens factorization).
const (
	alpha = -1.586134342059924
	beta  = -0.052980118572961
	gamma = 0.882911075530934
	delta = 0.443506852043971
	kappa = 1.230174104914001
)

// liftLine adds c·(left+right) to every sample of x at the given parity
// (0: even, 1: odd). A neighbour outside the line is the one mirrored about
// the end sample, which is the only other neighbour. len(x) must be >= 2.
func liftLine(x []float64, parity int, c float64) {
	n := len(x)
	i := parity
	if i == 0 {
		x[0] += c * (x[1] + x[1])
		i = 2
	}
	for ; i < n-1; i += 2 {
		x[i] += c * (x[i-1] + x[i+1])
	}
	if i == n-1 {
		x[i] += c * (x[i-1] + x[i-1])
	}
}

// liftRows is liftLine along the row index of a block whose row r is
// d[r*stride:][:w]: each sample of a row at the given parity gets
// c·(sample above + sample below). rows must be >= 2.
func liftRows(d []float64, rows, w, stride, parity int, c float64) {
	for r := parity; r < rows; r += 2 {
		up, down := r-1, r+1
		if up < 0 {
			up = 1
		}
		if down == rows {
			down = r - 1
		}
		dst := d[r*stride:][:w]
		a, b := d[up*stride:][:w], d[down*stride:][:w]
		for i := range dst {
			dst[i] += c * (a[i] + b[i])
		}
	}
}

// Forward1D applies one level of the CDF 9/7 transform in place, then
// de-interleaves: x[0:ceil(n/2)] holds the low-pass (approximation) band and
// x[ceil(n/2):] the high-pass (detail) band. Signals of length < 2 are
// returned unchanged.
func Forward1D(x []float64) {
	if len(x) >= 2 {
		forwardLine(x, make([]float64, len(x)))
	}
}

// forwardLine is Forward1D on a line of length >= 2 with len(x) floats of
// caller-provided scratch. The scale rides on the de-interleave.
func forwardLine(x, tmp []float64) {
	liftLine(x, 1, alpha)
	liftLine(x, 0, beta)
	liftLine(x, 1, gamma)
	liftLine(x, 0, delta)
	n := len(x)
	lo, hi := tmp[:(n+1)/2], tmp[(n+1)/2:n]
	for i := range hi {
		lo[i] = x[2*i] * kappa
		hi[i] = x[2*i+1] / kappa
	}
	if n%2 == 1 {
		lo[n/2] = x[n-1] * kappa
	}
	copy(x, tmp[:n])
}

// Inverse1D reverses Forward1D.
func Inverse1D(x []float64) {
	if len(x) >= 2 {
		inverseLine(x, make([]float64, len(x)))
	}
}

// inverseLine reverses forwardLine. x -= c·s is evaluated as x += (-c)·s,
// which is the same float64: negation is exact.
func inverseLine(x, tmp []float64) {
	n := len(x)
	lo, hi := x[:(n+1)/2], x[(n+1)/2:]
	for i := range hi {
		tmp[2*i] = lo[i] / kappa
		tmp[2*i+1] = hi[i] * kappa
	}
	if n%2 == 1 {
		tmp[n-1] = lo[n/2] / kappa
	}
	copy(x, tmp[:n])
	liftLine(x, 0, -delta)
	liftLine(x, 1, -gamma)
	liftLine(x, 0, -beta)
	liftLine(x, 1, -alpha)
}

// tileFloats is the working set of one row-batched strip: wide enough that a
// row operation amortizes its set-up, small enough that the strip and its
// scratch copy stay in the first-level cache through the four lifting sweeps.
const tileFloats = 2048

// forwardRows is forwardLine along the row index of a rows×w block (row r at
// d[r*stride:][:w]), in column strips of at most tileFloats samples.
func forwardRows(d []float64, rows, w, stride int, tmp []float64) {
	nLow := (rows + 1) / 2
	tw := max(1, tileFloats/rows)
	for x0 := 0; x0 < w; x0 += tw {
		sw := min(tw, w-x0)
		s := d[x0:]
		liftRows(s, rows, sw, stride, 1, alpha)
		liftRows(s, rows, sw, stride, 0, beta)
		liftRows(s, rows, sw, stride, 1, gamma)
		liftRows(s, rows, sw, stride, 0, delta)
		for r := 0; r < rows; r++ {
			src := s[r*stride:][:sw]
			if r%2 == 0 {
				dst := tmp[(r/2)*sw:][:sw]
				for i, v := range src {
					dst[i] = v * kappa
				}
			} else {
				dst := tmp[(nLow+r/2)*sw:][:sw]
				for i, v := range src {
					dst[i] = v / kappa
				}
			}
		}
		for r := 0; r < rows; r++ {
			copy(s[r*stride:][:sw], tmp[r*sw:])
		}
	}
}

// inverseRows reverses forwardRows.
func inverseRows(d []float64, rows, w, stride int, tmp []float64) {
	nLow := (rows + 1) / 2
	tw := max(1, tileFloats/rows)
	for x0 := 0; x0 < w; x0 += tw {
		sw := min(tw, w-x0)
		s := d[x0:]
		for r := 0; r < rows; r++ {
			dst := tmp[r*sw:][:sw]
			if r%2 == 0 {
				for i, v := range s[(r/2)*stride:][:sw] {
					dst[i] = v / kappa
				}
			} else {
				for i, v := range s[(nLow+r/2)*stride:][:sw] {
					dst[i] = v * kappa
				}
			}
		}
		for r := 0; r < rows; r++ {
			copy(s[r*stride:][:sw], tmp[r*sw:])
		}
		liftRows(s, rows, sw, stride, 0, -delta)
		liftRows(s, rows, sw, stride, 1, -gamma)
		liftRows(s, rows, sw, stride, 0, -beta)
		liftRows(s, rows, sw, stride, 1, -alpha)
	}
}

// Levels returns the number of dyadic decomposition levels appropriate for a
// signal of length n (stop when the approximation band would drop below 8
// samples, as SPERR does).
func Levels(n int) int {
	levels := 0
	for n >= 16 {
		n = (n + 1) / 2
		levels++
	}
	return levels
}

// Grid is a 3D array of float64 coefficients with x fastest. 2D data uses
// Nz == 1. It is the working buffer for the SPERR transform stage.
type Grid struct {
	Nx, Ny, Nz int
	Data       []float64
	tmp        []float64 // one line or one strip of transform scratch
}

// NewGrid allocates a zeroed grid.
func NewGrid(nx, ny, nz int) *Grid {
	g := &Grid{}
	g.Reset(nx, ny, nz)
	clear(g.Data)
	return g
}

// Reset re-dimensions g, keeping its buffers when they are large enough, so
// a pooled Grid stops allocating once it has seen its largest field. The
// contents of Data are unspecified afterwards.
func (g *Grid) Reset(nx, ny, nz int) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("wavelet: invalid grid %dx%dx%d", nx, ny, nz))
	}
	g.Nx, g.Ny, g.Nz = nx, ny, nz
	g.Data = resize(g.Data, nx*ny*nz)
	g.tmp = resize(g.tmp, max(nx, ny, nz, tileFloats))
}

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Forward applies `levels` levels of the separable 9/7 transform in place.
// Level l transforms the low-pass corner sub-grid of dimensions
// ceil(N/2^l) along each non-trivial axis: x line by line, then y and z as
// whole-row operations over the contiguous x runs.
func (g *Grid) Forward(levels int) {
	plane := g.Nx * g.Ny
	for l := 0; l < levels; l++ {
		nx, ny, nz := g.levelDims(l)
		if nx >= 2 {
			for z := 0; z < nz; z++ {
				for y := 0; y < ny; y++ {
					forwardLine(g.Data[z*plane+y*g.Nx:][:nx], g.tmp)
				}
			}
		}
		if ny >= 2 {
			for z := 0; z < nz; z++ {
				forwardRows(g.Data[z*plane:], ny, nx, g.Nx, g.tmp)
			}
		}
		if nz >= 2 {
			for y := 0; y < ny; y++ {
				forwardRows(g.Data[y*g.Nx:], nz, nx, plane, g.tmp)
			}
		}
	}
}

// Inverse reverses Forward with the same level count.
func (g *Grid) Inverse(levels int) {
	plane := g.Nx * g.Ny
	for l := levels - 1; l >= 0; l-- {
		nx, ny, nz := g.levelDims(l)
		if nz >= 2 {
			for y := 0; y < ny; y++ {
				inverseRows(g.Data[y*g.Nx:], nz, nx, plane, g.tmp)
			}
		}
		if ny >= 2 {
			for z := 0; z < nz; z++ {
				inverseRows(g.Data[z*plane:], ny, nx, g.Nx, g.tmp)
			}
		}
		if nx >= 2 {
			for z := 0; z < nz; z++ {
				for y := 0; y < ny; y++ {
					inverseLine(g.Data[z*plane+y*g.Nx:][:nx], g.tmp)
				}
			}
		}
	}
}

// levelDims returns the dimensions of the sub-grid level l transforms.
func (g *Grid) levelDims(l int) (nx, ny, nz int) {
	nx, ny, nz = g.Nx, g.Ny, g.Nz
	for ; l > 0; l-- {
		nx, ny, nz = nextDim(nx), nextDim(ny), nextDim(nz)
	}
	return nx, ny, nz
}

func nextDim(n int) int {
	if n < 2 {
		return n
	}
	return (n + 1) / 2
}
