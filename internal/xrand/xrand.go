// Package xrand provides the deterministic pseudo-random machinery shared by
// the dataset generators, the random-forest trainer, and the optimizers.
//
// Everything in this repository must be reproducible run-to-run, so all
// stochastic components draw from an explicit *Source seeded by the caller
// rather than from global state.
package xrand

import "math"

// Source is a splitmix64 pseudo-random generator. It is small, fast, has a
// full 2^64 period, and passes the statistical batteries relevant to the
// procedural noise used here. The zero value is a valid generator seeded
// with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Range returns a uniform float64 in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a standard normal variate via Box-Muller.
func (s *Source) Norm() float64 {
	u1 := s.Float64()
	for u1 == 0 { //carol:allow floateq Box-Muller rejects exactly zero before log
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	s.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)), drawing the
// exact same variate sequence as Perm. It lets hot paths reuse a scratch
// slice instead of allocating per call.
func (s *Source) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes the first n indices in place using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// hash3 mixes three lattice coordinates and a seed into 64 pseudo-random
// bits; it is the basis of the value noise below.
func hash3(x, y, z int64, seed uint64) uint64 {
	h := seed
	h ^= uint64(x) * 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h ^= uint64(y) * 0xc2b2ae3d27d4eb4f
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= uint64(z) * 0x165667b19e3779f9
	h = (h ^ (h >> 31)) * 0xff51afd7ed558ccd
	return h ^ (h >> 33)
}

// latticeValue returns a deterministic uniform value in [-1, 1] at an
// integer lattice point.
func latticeValue(x, y, z int64, seed uint64) float64 {
	return float64(hash3(x, y, z, seed)>>11)/(1<<52) - 1
}

func smooth(t float64) float64 { return t * t * (3 - 2*t) }

// Noise is seeded 3D value noise. Evaluate it at any continuous coordinate;
// nearby points yield correlated values, giving the smooth fields scientific
// data exhibits. A Noise is not safe for concurrent use (FBm keeps a per-octave
// memo in it); build one per goroutine, as every generator builds one per field.
type Noise struct {
	seed uint64
	memo [8]cell // FBm octave o's last cell, for o < len(memo)
}

// cell holds the 8 lattice corner values of the unit cell whose low corner is
// (ix, iy, iz), at index dz<<2 | dy<<1 | dx. ok is false until it is filled.
type cell struct {
	ix, iy, iz int64
	ok         bool
	c          [8]float64
}

// NewNoise returns value noise with the given seed.
func NewNoise(seed uint64) *Noise { return &Noise{seed: seed} }

// At evaluates the noise at (x, y, z); the result is in [-1, 1].
func (n *Noise) At(x, y, z float64) float64 {
	var m cell
	return n.at(&m, x, y, z)
}

// at evaluates the noise at (x, y, z), taking the cell's corners from m when
// m holds the same cell, sliding them when the cell is m's +x neighbour, and
// leaving this cell's corners in m. Only latticeValue calls are saved: they
// are pure, and every floating-point expression is the same as without m, so
// the result is bit-identical whatever m held.
func (n *Noise) at(m *cell, x, y, z float64) float64 {
	x0, y0, z0 := math.Floor(x), math.Floor(y), math.Floor(z)
	tx, ty, tz := smooth(x-x0), smooth(y-y0), smooth(z-z0)
	ix, iy, iz := int64(x0), int64(y0), int64(z0)

	c := &m.c
	switch {
	case m.ok && ix == m.ix && iy == m.iy && iz == m.iz:
	case m.ok && ix == m.ix+1 && iy == m.iy && iz == m.iz:
		c[0], c[2], c[4], c[6] = c[1], c[3], c[5], c[7]
		c[1] = latticeValue(ix+1, iy, iz, n.seed)
		c[3] = latticeValue(ix+1, iy+1, iz, n.seed)
		c[5] = latticeValue(ix+1, iy, iz+1, n.seed)
		c[7] = latticeValue(ix+1, iy+1, iz+1, n.seed)
	default:
		for i := range c {
			c[i] = latticeValue(ix+int64(i&1), iy+int64(i>>1&1), iz+int64(i>>2), n.seed)
		}
	}
	m.ix, m.iy, m.iz, m.ok = ix, iy, iz, true

	lerp := func(a, b, t float64) float64 { return a + (b-a)*t }
	x00 := lerp(c[0], c[1], tx)
	x10 := lerp(c[2], c[3], tx)
	x01 := lerp(c[4], c[5], tx)
	x11 := lerp(c[6], c[7], tx)
	y0v := lerp(x00, x10, ty)
	y1v := lerp(x01, x11, ty)
	return lerp(y0v, y1v, tz)
}

// FBm evaluates fractal Brownian motion: `octaves` layers of value noise
// with per-octave frequency doubling (lacunarity 2) and amplitude decay
// `gain`. Result is approximately in [-1, 1]. Octave o < len(n.memo) reuses
// the lattice corners of the cell it visited on the previous call, so a sweep
// along +x hashes no corners while an octave stays in one cell and 4 (not 8)
// when it steps into the next.
func (n *Noise) FBm(x, y, z float64, octaves int, gain float64) float64 {
	var sum, norm float64
	amp, freq := 1.0, 1.0
	for o := 0; o < octaves; o++ {
		px, py, pz := x*freq+float64(o)*17.31, y*freq-float64(o)*9.7, z*freq+float64(o)*3.3
		if o < len(n.memo) {
			sum += amp * n.at(&n.memo[o], px, py, pz)
		} else {
			sum += amp * n.At(px, py, pz)
		}
		norm += amp
		amp *= gain
		freq *= 2
	}
	if norm == 0 { //carol:allow floateq zero-octave FBm normalizer guard before dividing
		return 0
	}
	return sum / norm
}
