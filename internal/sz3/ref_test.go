package sz3

import (
	"fmt"
	"math"

	"carol/internal/compressor"
	"carol/internal/field"
)

// The traversal, the predictor and the closure-driven encode and decode
// bodies this package shipped up to PR 21, verbatim bar the names and the
// stream assembly around them: one callback per point, a target struct built
// for it, the neighbours looked up through a bounds-testing closure. They are
// the oracle for FuzzInterpMatchesReference and the traversal tests — slow,
// and the definition of what every stream means.

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

// refEncode is the predict/quantize half of the old Compress: the anchors,
// the codes in traversal order, the raw-stored samples, and the
// reconstruction the decoder will arrive at.
func refEncode(f *field.Field, eb float64) (anchors []float32, codes []uint32, outliers []float32, recon []float64) {
	nx, ny, nz := f.Nx, f.Ny, f.Nz
	recon = make([]float64, len(f.Data))
	codes = make([]uint32, 0, len(f.Data))
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
	return anchors, codes, outliers, recon
}

// refDecode is the reconstruct half of the old DecompressLimited, its
// per-point exhaustion tests included. It tolerates surplus anchors, codes
// and outliers, which the decoder no longer does.
func refDecode(nx, ny, nz int, eb float64, anchors []float32, codes []uint32, outliers []float32) ([]float64, error) {
	recon := make([]float64, nx*ny*nz)
	ci, oi := 0, 0
	twoEB := 2 * eb
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
	return recon, terr
}

// refLastLevelCodes is the old LastLevelCodes: a float64 copy of the field
// and the closure walk over the stride-1 level.
func refLastLevelCodes(f *field.Field, eb float64) []uint32 {
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
