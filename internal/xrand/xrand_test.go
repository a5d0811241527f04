package xrand

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"carol/internal/fuzzseed"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(99)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(11)
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("Norm variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(5)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestNoiseDeterministicAndBounded(t *testing.T) {
	n1, n2 := NewNoise(123), NewNoise(123)
	for i := 0; i < 500; i++ {
		x, y, z := float64(i)*0.37, float64(i)*0.11, float64(i)*0.53
		v1, v2 := n1.At(x, y, z), n2.At(x, y, z)
		if v1 != v2 {
			t.Fatalf("noise not deterministic at %d", i)
		}
		if v1 < -1.0001 || v1 > 1.0001 {
			t.Fatalf("noise out of range: %v", v1)
		}
	}
}

func TestNoiseContinuity(t *testing.T) {
	n := NewNoise(77)
	// Adjacent samples at small spacing must be close (smoothness).
	const h = 1e-3
	for i := 0; i < 200; i++ {
		x := float64(i) * 0.193
		d := math.Abs(n.At(x, 1.5, 2.5) - n.At(x+h, 1.5, 2.5))
		if d > 0.02 {
			t.Fatalf("noise discontinuous at x=%v: jump %v", x, d)
		}
	}
}

func TestFBmBounded(t *testing.T) {
	n := NewNoise(9)
	for i := 0; i < 500; i++ {
		v := n.FBm(float64(i)*0.21, float64(i)*0.13, 0.5, 5, 0.5)
		if v < -1.0001 || v > 1.0001 {
			t.Fatalf("FBm out of range: %v", v)
		}
	}
}

func TestFBmZeroOctaves(t *testing.T) {
	n := NewNoise(9)
	if v := n.FBm(1, 2, 3, 0, 0.5); v != 0 {
		t.Fatalf("FBm with 0 octaves = %v, want 0", v)
	}
}

func TestFBmRoughness(t *testing.T) {
	// More octaves must add high-frequency energy: mean |gradient| grows.
	n := NewNoise(31)
	rough := func(oct int) float64 {
		var sum float64
		const h = 0.01
		for i := 0; i < 500; i++ {
			x := float64(i) * 0.113
			sum += math.Abs(n.FBm(x+h, 0.7, 0.3, oct, 0.6) - n.FBm(x, 0.7, 0.3, oct, 0.6))
		}
		return sum
	}
	if r1, r5 := rough(1), rough(6); r5 <= r1 {
		t.Fatalf("6-octave roughness %v not greater than 1-octave %v", r5, r1)
	}
}

func TestQuickRangeWithin(t *testing.T) {
	f := func(seed uint64, a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi-lo <= 0 || hi-lo > 1e100 {
			return true
		}
		v := New(seed).Range(lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

// refAt and refFBm are Noise.At and Noise.FBm as they were before FBm kept a
// per-octave corner memo: every call hashes all 8 corners of every octave's
// cell. The memoized FBm must match them bit for bit on any access pattern.
func refAt(n *Noise, x, y, z float64) float64 {
	x0, y0, z0 := math.Floor(x), math.Floor(y), math.Floor(z)
	tx, ty, tz := smooth(x-x0), smooth(y-y0), smooth(z-z0)
	ix, iy, iz := int64(x0), int64(y0), int64(z0)

	var c [2][2][2]float64
	for dz := int64(0); dz < 2; dz++ {
		for dy := int64(0); dy < 2; dy++ {
			for dx := int64(0); dx < 2; dx++ {
				c[dz][dy][dx] = latticeValue(ix+dx, iy+dy, iz+dz, n.seed)
			}
		}
	}
	lerp := func(a, b, t float64) float64 { return a + (b-a)*t }
	x00 := lerp(c[0][0][0], c[0][0][1], tx)
	x10 := lerp(c[0][1][0], c[0][1][1], tx)
	x01 := lerp(c[1][0][0], c[1][0][1], tx)
	x11 := lerp(c[1][1][0], c[1][1][1], tx)
	y0v := lerp(x00, x10, ty)
	y1v := lerp(x01, x11, ty)
	return lerp(y0v, y1v, tz)
}

func refFBm(n *Noise, x, y, z float64, octaves int, gain float64) float64 {
	var sum, norm float64
	amp, freq := 1.0, 1.0
	for o := 0; o < octaves; o++ {
		sum += amp * refAt(n, x*freq+float64(o)*17.31, y*freq-float64(o)*9.7, z*freq+float64(o)*3.3)
		norm += amp
		amp *= gain
		freq *= 2
	}
	if norm == 0 {
		return 0
	}
	return sum / norm
}

// sameFloat reports whether a and b have the same bits, or are both NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// noiseProbe drives one or two Noise values through a sequence of points and
// checks every FBm (and interleaved At) against the reference.
type noiseProbe struct {
	t       *testing.T
	noises  [2]*Noise
	octaves int
	gain    float64
}

func (p *noiseProbe) fbm(which int, x, y, z float64) {
	p.t.Helper()
	n := p.noises[which]
	if got, want := n.FBm(x, y, z, p.octaves, p.gain), refFBm(n, x, y, z, p.octaves, p.gain); !sameFloat(got, want) {
		p.t.Fatalf("noise %d FBm(%v, %v, %v, %d, %v) = %v (%#x), reference %v (%#x)",
			which, x, y, z, p.octaves, p.gain, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func (p *noiseProbe) at(which int, x, y, z float64) {
	p.t.Helper()
	n := p.noises[which]
	if got, want := n.At(x, y, z), refAt(n, x, y, z); !sameFloat(got, want) {
		p.t.Fatalf("noise %d At(%v, %v, %v) = %v, reference %v", which, x, y, z, got, want)
	}
}

// TestFBmMatchesReference walks the access patterns the corner memo must
// survive, at 0–12 octaves (past the memo's 8 slots): the generators' +x row
// sweeps, −x sweeps, jumps of several cells, y or z moving under the same
// cell column, negative coordinates and points exactly on lattice planes, two
// Noise values interleaved, and At interleaved with FBm on one Noise.
func TestFBmMatchesReference(t *testing.T) {
	for octaves := 0; octaves <= 12; octaves++ {
		p := &noiseProbe{t: t, noises: [2]*Noise{NewNoise(7), NewNoise(7 ^ 0x55aa)}, octaves: octaves, gain: 0.55}
		// +x row sweeps at the generators' scales, over a small grid.
		for _, scale := range []float64{24, 10, 1.3, 0.7} {
			for z := 0; z < 3; z++ {
				for y := 0; y < 3; y++ {
					for x := 0; x < 40; x++ {
						p.fbm(0, float64(x)/scale+1.9, float64(y)/scale, float64(z)/scale)
					}
				}
			}
		}
		// −x sweeps, through zero into negative coordinates.
		for x := 40; x >= -40; x-- {
			p.fbm(0, float64(x)/7, -2.25, -0.5)
		}
		// Jumps of more than one cell, both ways.
		for i, x := 0, 0.3; i < 30; i++ {
			x += float64(2 + i%5)
			if i%3 == 0 {
				x = -x
			}
			p.fbm(0, x, 1.5, 2.5)
		}
		// y or z changing under the same ix, then +x again.
		for i := 0; i < 20; i++ {
			p.fbm(0, 3.25, float64(i)*0.37, 4.5)
			p.fbm(0, 3.75, 1.1, float64(i)*0.41)
			p.fbm(0, 4.25, 1.1, float64(i)*0.41)
		}
		// Exactly on lattice planes, negative and positive, and one ulp off.
		for x := -3.0; x <= 3; x++ {
			p.fbm(0, x, -1, 2)
			p.fbm(0, math.Nextafter(x, math.Inf(-1)), -1, 2)
			p.fbm(0, math.Nextafter(x, math.Inf(1)), -1, 2)
		}
		// Two Noise values interleaved, and At interleaved with FBm.
		for x := 0; x < 60; x++ {
			xf := float64(x) / 9
			p.fbm(x%2, xf, 0.4, 0.6)
			p.fbm(1-x%2, xf+0.5, 0.4, 0.6)
			p.at(0, xf*2, 0.4, 0.6)
			p.fbm(0, xf, 0.4, 0.6)
		}
	}
}

// fbmCase decodes a fuzz input: an 8-byte seed, an octave count (0–12), a
// gain, a start point, then 4-byte steps [op a b c] that move the point and
// evaluate FBm (or At) on one of two Noise values.
func fbmCase(t *testing.T, data []byte) {
	if len(data) < 16 {
		return
	}
	seed := binary.LittleEndian.Uint64(data)
	p := &noiseProbe{t: t, noises: [2]*Noise{NewNoise(seed), NewNoise(^seed)},
		octaves: int(data[8] % 13), gain: 0.25 + float64(data[9])/256}
	i16 := func(b []byte) float64 { return float64(int16(binary.LittleEndian.Uint16(b))) / 64 }
	x, y, z := i16(data[10:]), i16(data[12:]), i16(data[14:])
	for ops := data[16:]; len(ops) >= 4; ops = ops[4:] {
		op, a, b, c := ops[0], ops[1], ops[2], ops[3]
		which := int(op >> 7)
		switch op % 8 {
		case 0: // +x step of up to 4 cells
			x += float64(a) / 64
		case 1: // −x step
			x -= float64(a) / 64
		case 2: // y and z move
			y += float64(int8(b)) / 32
			z += float64(int8(c)) / 32
		case 3: // onto a lattice point
			x, y, z = float64(int8(a)), float64(int8(b)), float64(int8(c))
		case 4: // a diagonal move, of up to 95 cells
			x += float64(int8(a)) * 0.75
			y += float64(int8(b)) * 0.75
			z += float64(int8(c)) * 0.75
		case 5: // At on the same Noise between FBm calls
			p.at(which, x, y, z)
			continue
		case 6: // mirror through the origin
			x, y, z = -x, -y, -z
		case 7: // a step of one ulp
			x = math.Nextafter(x, float64(int8(a)))
		}
		p.fbm(which, x, y, z)
	}
}

// fbmSeeds are FuzzFBmMatchesReference's checked-in corpus: a +x sweep, a
// −x sweep through zero, jumps, +x steps that also move y or z, y/z moves, lattice points with ulp steps, At
// and two Noise values interleaved, and 12 octaves.
func fbmSeeds() [][]byte {
	seed := func(octaves, gain byte, x, y, z int16, ops ...byte) []byte {
		s := []byte{1, 2, 3, 4, 5, 6, 7, 8, octaves, gain, byte(x), byte(x >> 8), byte(y), byte(y >> 8), byte(z), byte(z >> 8)}
		return append(s, ops...)
	}
	sweep := func(op, step byte, n int) []byte {
		var out []byte
		for i := 0; i < n; i++ {
			out = append(out, op, step, 0, 0)
		}
		return out
	}
	return [][]byte{
		seed(5, 77, 10, 20, 30, sweep(0, 3, 64)...),
		seed(6, 100, 40, -20, -30, sweep(1, 5, 64)...),
		seed(4, 50, -100, 0, 7, sweep(4, 9, 20)...),
		seed(2, 64, 8, 8, 8, 4, 1, 0, 1, 4, 1, 1, 0, 4, 1, 0, 0, 4, 1, 0, 1, 4, 0xff, 0, 0xff),
		seed(3, 90, 0, 0, 0, 0, 70, 0, 0, 2, 0, 12, 0, 0, 20, 0, 0, 2, 0, 0, 200, 0, 64, 0, 0),
		seed(5, 60, 0, 0, 0, 3, 2, 0xfe, 1, 7, 0, 0, 0, 7, 100, 0, 0, 3, 0xff, 0, 0, 7, 0x80, 0, 0),
		seed(8, 80, 64, 64, 64, 0, 16, 0, 0, 5, 0, 0, 0, 0x80, 16, 0, 0, 0x85, 0, 0, 0, 0, 16, 0, 0, 6, 0, 0, 0),
		seed(12, 128, -64, 5, 9, sweep(0, 40, 32)...),
		seed(0, 0, 1, 1, 1, 0, 1, 0, 0),
	}
}

// FuzzFBmMatchesReference: any walk of any two Noise values, at any octave
// count, gives the reference FBm and At bit for bit.
func FuzzFBmMatchesReference(f *testing.F) {
	for _, s := range fbmSeeds() {
		f.Add(s)
	}
	f.Fuzz(fbmCase)
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus when
// CAROL_WRITE_CORPUS is set; otherwise it asserts the corpus exists.
func TestWriteFuzzCorpus(t *testing.T) {
	fuzzseed.Check(t, ".", map[string][][]byte{"FuzzFBmMatchesReference": fbmSeeds()})
}

// BenchmarkFBmRow sweeps one 64-sample row along +x at Miranda density's
// scale and octaves, the access pattern of every dataset generator.
func BenchmarkFBmRow(b *testing.B) {
	n := NewNoise(1)
	for i := 0; i < b.N; i++ {
		y := float64(i%64) / 24
		for x := 0; x < 64; x++ {
			_ = n.FBm(float64(x)/24, y, 0.5, 4, 0.5)
		}
	}
}

func BenchmarkNoiseAt(b *testing.B) {
	n := NewNoise(1)
	for i := 0; i < b.N; i++ {
		_ = n.At(float64(i)*0.01, 0.5, 0.25)
	}
}
