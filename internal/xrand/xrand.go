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
// bits; it is the basis of the value noise below. It runs in stages, one
// per coordinate and a final mix, so a caller that holds the x stage of a
// lattice line can finish each of its points with hashY and hashZ alone.
func hash3(x, y, z int64, seed uint64) uint64 {
	return hashZ(hashY(hashX(x, seed), y), z)
}

// hashX is hash3's x stage.
func hashX(x int64, seed uint64) uint64 {
	h := seed ^ uint64(x)*0x9e3779b97f4a7c15
	return (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
}

// hashY is hash3's y stage, applied to the x stage h.
func hashY(h uint64, y int64) uint64 {
	h ^= uint64(y) * 0xc2b2ae3d27d4eb4f
	return (h ^ (h >> 27)) * 0x94d049bb133111eb
}

// hashZ is hash3's z stage and final mix, applied to the y stage h.
func hashZ(h uint64, z int64) uint64 {
	h ^= uint64(z) * 0x165667b19e3779f9
	h = (h ^ (h >> 31)) * 0xff51afd7ed558ccd
	return h ^ (h >> 33)
}

// latticeValue returns a deterministic uniform value in [-1, 1] at an
// integer lattice point.
func latticeValue(x, y, z int64, seed uint64) float64 {
	return hashValue(hash3(x, y, z, seed))
}

// hashValue maps hash3's bits to [-1, 1].
func hashValue(h uint64) float64 { return float64(h>>11)/(1<<52) - 1 }

func smooth(t float64) float64 { return t * t * (3 - 2*t) }

func lerp(a, b, t float64) float64 { return a + (b-a)*t }

// corners returns the lattice values at the 8 corners of the unit cell whose
// low corner is (ix, iy, iz), at index dz<<2 | dy<<1 | dx.
func corners(ix, iy, iz int64, seed uint64) (c [8]float64) {
	for i := range c {
		c[i] = latticeValue(ix+int64(i&1), iy+int64(i>>1&1), iz+int64(i>>2), seed)
	}
	return c
}

// Noise is seeded 3D value noise. Evaluate it at any continuous coordinate;
// nearby points yield correlated values, giving the smooth fields scientific
// data exhibits. A Noise holds only its seed, so one Noise may be evaluated
// from any number of goroutines.
type Noise struct {
	seed uint64
}

// NewNoise returns value noise with the given seed.
func NewNoise(seed uint64) *Noise { return &Noise{seed: seed} }

// At evaluates the noise at (x, y, z); the result is in [-1, 1].
func (n *Noise) At(x, y, z float64) float64 {
	x0, y0, z0 := math.Floor(x), math.Floor(y), math.Floor(z)
	tx, ty, tz := smooth(x-x0), smooth(y-y0), smooth(z-z0)
	ix, iy, iz := int64(x0), int64(y0), int64(z0)

	c := corners(ix, iy, iz, n.seed)
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
// `gain`. Result is approximately in [-1, 1]. It is the point form of
// FBmRow, which returns the same bits for a whole row at a time.
func (n *Noise) FBm(x, y, z float64, octaves int, gain float64) float64 {
	var sum, norm float64
	amp, freq := 1.0, 1.0
	for o := 0; o < octaves; o++ {
		sum += amp * n.At(x*freq+float64(o)*17.31, y*freq-float64(o)*9.7, z*freq+float64(o)*3.3)
		norm += amp
		amp *= gain
		freq *= 2
	}
	if norm == 0 { //carol:allow floateq zero-octave FBm normalizer guard before dividing
		return 0
	}
	return sum / norm
}

// Axis is the x side of a row of FBm samples: the x coordinates of one row,
// shared by every row of a field. Per octave it holds each x's lattice cell
// and smoothed offset, computed once; the x stage of the hash of each x's
// two lattice lines, computed once per noise seed; and the x-lerped corners
// of the last (iy, iz) cell a row visited, which every row in that cell
// reuses. An Axis is not safe for concurrent use; build one per goroutine
// and field.
type Axis struct {
	xs  []float64
	oct []axisOctave
}

// axisOctave is one octave of an Axis. ix and tx are each x's cell and
// smoothed offset. For noise seed, hx holds each x's hashX of ix and ix+1,
// and lx its four x-lerps (x00, x10, x01, x11 in At's names) in cell
// (iy, iz); ok is false until then.
type axisOctave struct {
	ix     []int64
	tx     []float64
	ok     bool
	seed   uint64
	iy, iz int64
	hx     [][2]uint64
	lx     [][4]float64
}

// NewAxis returns an Axis over the x coordinates xs, which it keeps.
func NewAxis(xs []float64) *Axis { return &Axis{xs: xs} }

// octave returns octave o, tabulating it at frequency freq on first use.
// Octaves are asked for in order, so o <= len(a.oct).
func (a *Axis) octave(o int, freq float64) *axisOctave {
	if o < len(a.oct) {
		return &a.oct[o]
	}
	n := len(a.xs)
	oc := axisOctave{ix: make([]int64, n), tx: make([]float64, n), hx: make([][2]uint64, n), lx: make([][4]float64, n)}
	for i, x := range a.xs {
		px := x*freq + float64(o)*17.31
		x0 := math.Floor(px)
		oc.ix[i], oc.tx[i] = int64(x0), smooth(px-x0)
	}
	a.oct = append(a.oct, oc)
	return &a.oct[o]
}

// cell makes oc.lx hold the x-lerps of cell (iy, iz) of noise seed. Along
// the row, a sample in the same x cell as the one before reuses its corners
// and one in the next cell along +x computes only its 4 new ones. A cell
// one step up in y from the last, at the same iz and seed, slides: its lower
// x-lerps are the last cell's upper ones, so only its upper corners are
// computed. A corner costs hashY and hashZ; its line's hashX is in oc.hx.
func (oc *axisOctave) cell(seed uint64, iy, iz int64) {
	same := oc.ok && oc.seed == seed
	if same && oc.iy == iy && oc.iz == iz {
		return
	}
	if !same {
		for i, ix := range oc.ix {
			oc.hx[i] = [2]uint64{hashX(ix, seed), hashX(ix+1, seed)}
		}
	}
	slide := same && oc.iz == iz && oc.iy+1 == iy
	oc.ok, oc.seed, oc.iy, oc.iz = true, seed, iy, iz
	// ci is corners' c[i], at dz<<2 | dy<<1 | dx; when sliding, only the
	// upper ones (c2, c3, c6, c7) are kept. Each pair that shares a y is
	// hashY and two hashZ, written out: a call costs as much as the hashing.
	var c0, c1, c2, c3, c4, c5, c6, c7 float64
	for i, ix := range oc.ix {
		h := &oc.hx[i]
		switch {
		case i > 0 && ix == oc.ix[i-1]:
		case i > 0 && ix == oc.ix[i-1]+1:
			c0, c2, c4, c6 = c1, c3, c5, c7
			if !slide {
				hy := hashY(h[1], iy)
				c1, c5 = hashValue(hashZ(hy, iz)), hashValue(hashZ(hy, iz+1))
			}
			hy := hashY(h[1], iy+1)
			c3, c7 = hashValue(hashZ(hy, iz)), hashValue(hashZ(hy, iz+1))
		default:
			if !slide {
				hy := hashY(h[0], iy)
				c0, c4 = hashValue(hashZ(hy, iz)), hashValue(hashZ(hy, iz+1))
				hy = hashY(h[1], iy)
				c1, c5 = hashValue(hashZ(hy, iz)), hashValue(hashZ(hy, iz+1))
			}
			hy := hashY(h[0], iy+1)
			c2, c6 = hashValue(hashZ(hy, iz)), hashValue(hashZ(hy, iz+1))
			hy = hashY(h[1], iy+1)
			c3, c7 = hashValue(hashZ(hy, iz)), hashValue(hashZ(hy, iz+1))
		}
		l, t := &oc.lx[i], oc.tx[i]
		if slide {
			l[0], l[2] = l[1], l[3]
		} else {
			l[0], l[2] = lerp(c0, c1, t), lerp(c4, c5, t)
		}
		l[1], l[3] = lerp(c2, c3, t), lerp(c6, c7, t)
	}
}

// FBmRow sets out[i] to FBm(xs[i], y, z, octaves, gain) for every x
// coordinate xs[i] of a, bit for bit: each octave's coordinates, cell,
// smoothed offsets and lerps are FBm's expressions in FBm's order, and the
// octaves are summed in the same order. The x side comes from a's tables and
// the y and z side is computed once per octave, so a sample costs each
// octave two y-lerps, a z-lerp and the weighted add. out must have an entry
// per x coordinate.
func (n *Noise) FBmRow(out []float64, a *Axis, y, z float64, octaves int, gain float64) {
	out = out[:len(a.xs)]
	clear(out)
	var norm float64
	amp, freq := 1.0, 1.0
	for o := 0; o < octaves; o++ {
		oc := a.octave(o, freq)
		py, pz := y*freq-float64(o)*9.7, z*freq+float64(o)*3.3
		y0, z0 := math.Floor(py), math.Floor(pz)
		ty, tz := smooth(py-y0), smooth(pz-z0)
		oc.cell(n.seed, int64(y0), int64(z0))
		for i := range oc.lx {
			l := &oc.lx[i]
			y0v := lerp(l[0], l[1], ty)
			y1v := lerp(l[2], l[3], ty)
			out[i] += amp * lerp(y0v, y1v, tz)
		}
		norm += amp
		amp *= gain
		freq *= 2
	}
	if norm == 0 { //carol:allow floateq zero-octave FBm normalizer guard before dividing
		return
	}
	for i := range out {
		out[i] /= norm
	}
}
