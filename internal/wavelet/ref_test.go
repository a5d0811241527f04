package wavelet

// The transform this package shipped up to PR 19, verbatim bar the names:
// every tap goes through a closure and a modulo (mirror), the scale and the
// (de)interleave are separate sweeps, and the y and z passes gather one
// strided line at a time. It is the oracle for FuzzGridMatchesReference and
// the 1D tests — slow, and the definition of the coefficients.

// mirror reflects index i into [0, n) with whole-sample symmetric extension.
func mirror(i, n int) int {
	if n == 1 {
		return 0
	}
	period := 2 * (n - 1)
	i %= period
	if i < 0 {
		i += period
	}
	if i >= n {
		i = period - i
	}
	return i
}

// refForward1D is Forward1D with caller-provided de-interleave scratch (may be
// nil); Grid passes one buffer down so per-line transforms allocate nothing.
func refForward1D(x, tmp []float64) {
	n := len(x)
	if n < 2 {
		return
	}
	at := func(i int) float64 { return x[mirror(i, n)] }
	// Predict 1.
	for i := 1; i < n; i += 2 {
		x[i] += alpha * (at(i-1) + at(i+1))
	}
	// Update 1.
	for i := 0; i < n; i += 2 {
		x[i] += beta * (at(i-1) + at(i+1))
	}
	// Predict 2.
	for i := 1; i < n; i += 2 {
		x[i] += gamma * (at(i-1) + at(i+1))
	}
	// Update 2.
	for i := 0; i < n; i += 2 {
		x[i] += delta * (at(i-1) + at(i+1))
	}
	// Scale.
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x[i] *= kappa
		} else {
			x[i] /= kappa
		}
	}
	refDeinterleave(x, tmp)
}

// refInverse1D is Inverse1D with caller-provided interleave scratch (may be nil).
func refInverse1D(x, tmp []float64) {
	n := len(x)
	if n < 2 {
		return
	}
	refInterleave(x, tmp)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x[i] /= kappa
		} else {
			x[i] *= kappa
		}
	}
	at := func(i int) float64 { return x[mirror(i, n)] }
	for i := 0; i < n; i += 2 {
		x[i] -= delta * (at(i-1) + at(i+1))
	}
	for i := 1; i < n; i += 2 {
		x[i] -= gamma * (at(i-1) + at(i+1))
	}
	for i := 0; i < n; i += 2 {
		x[i] -= beta * (at(i-1) + at(i+1))
	}
	for i := 1; i < n; i += 2 {
		x[i] -= alpha * (at(i-1) + at(i+1))
	}
}

func refDeinterleave(x, tmp []float64) {
	n := len(x)
	nLow := (n + 1) / 2
	if len(tmp) < n {
		tmp = make([]float64, n)
	}
	tmp = tmp[:n]
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			tmp[i/2] = x[i]
		} else {
			tmp[nLow+i/2] = x[i]
		}
	}
	copy(x, tmp)
}

func refInterleave(x, tmp []float64) {
	n := len(x)
	nLow := (n + 1) / 2
	if len(tmp) < n {
		tmp = make([]float64, n)
	}
	tmp = tmp[:n]
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			tmp[i] = x[i/2]
		} else {
			tmp[i] = x[nLow+i/2]
		}
	}
	copy(x, tmp)
}

func (g *Grid) idx(x, y, z int) int { return (z*g.Ny+y)*g.Nx + x }

// refForward applies `levels` levels of the separable 9/7 transform in place.
// Level l transforms the low-pass corner sub-grid of dimensions
// ceil(N/2^l) along each non-trivial axis.
func (g *Grid) refForward(levels int) {
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	buf := make([]float64, max(nx, ny, nz))
	tmp := make([]float64, len(buf))
	for l := 0; l < levels; l++ {
		if nx >= 2 {
			for z := 0; z < nz; z++ {
				for y := 0; y < ny; y++ {
					row := buf[:nx]
					base := g.idx(0, y, z)
					copy(row, g.Data[base:base+nx])
					refForward1D(row, tmp)
					copy(g.Data[base:base+nx], row)
				}
			}
		}
		if ny >= 2 {
			for z := 0; z < nz; z++ {
				for x := 0; x < nx; x++ {
					col := buf[:ny]
					for y := 0; y < ny; y++ {
						col[y] = g.Data[g.idx(x, y, z)]
					}
					refForward1D(col, tmp)
					for y := 0; y < ny; y++ {
						g.Data[g.idx(x, y, z)] = col[y]
					}
				}
			}
		}
		if nz >= 2 {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					pil := buf[:nz]
					for z := 0; z < nz; z++ {
						pil[z] = g.Data[g.idx(x, y, z)]
					}
					refForward1D(pil, tmp)
					for z := 0; z < nz; z++ {
						g.Data[g.idx(x, y, z)] = pil[z]
					}
				}
			}
		}
		nx, ny, nz = nextDim(nx), nextDim(ny), nextDim(nz)
	}
}

// refInverse reverses refForward with the same level count.
func (g *Grid) refInverse(levels int) {
	// Recompute the per-level sub-dimensions, then undo levels in reverse.
	type dims struct{ nx, ny, nz int }
	seq := make([]dims, levels)
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	for l := 0; l < levels; l++ {
		seq[l] = dims{nx, ny, nz}
		nx, ny, nz = nextDim(nx), nextDim(ny), nextDim(nz)
	}
	buf := make([]float64, max(g.Nx, g.Ny, g.Nz))
	tmp := make([]float64, len(buf))
	for l := levels - 1; l >= 0; l-- {
		d := seq[l]
		if d.nz >= 2 {
			for y := 0; y < d.ny; y++ {
				for x := 0; x < d.nx; x++ {
					pil := buf[:d.nz]
					for z := 0; z < d.nz; z++ {
						pil[z] = g.Data[g.idx(x, y, z)]
					}
					refInverse1D(pil, tmp)
					for z := 0; z < d.nz; z++ {
						g.Data[g.idx(x, y, z)] = pil[z]
					}
				}
			}
		}
		if d.ny >= 2 {
			for z := 0; z < d.nz; z++ {
				for x := 0; x < d.nx; x++ {
					col := buf[:d.ny]
					for y := 0; y < d.ny; y++ {
						col[y] = g.Data[g.idx(x, y, z)]
					}
					refInverse1D(col, tmp)
					for y := 0; y < d.ny; y++ {
						g.Data[g.idx(x, y, z)] = col[y]
					}
				}
			}
		}
		if d.nx >= 2 {
			for z := 0; z < d.nz; z++ {
				for y := 0; y < d.ny; y++ {
					row := buf[:d.nx]
					base := g.idx(0, y, z)
					copy(row, g.Data[base:base+d.nx])
					refInverse1D(row, tmp)
					copy(g.Data[base:base+d.nx], row)
				}
			}
		}
	}
}
