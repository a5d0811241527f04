package wavelet

import (
	"math"
	"testing"

	"carol/internal/xrand"
)

// sameBits fails unless got and want are the same float64s bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d = %x (%g), reference %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// checkGridMatchesReference transforms one seeded grid both ways through the
// production routines and through the per-line reference, and compares every
// coefficient and every reconstructed sample as bit patterns.
func checkGridMatchesReference(t *testing.T, seed uint64, nx, ny, nz, levels int) {
	rng := xrand.New(seed)
	g, ref := NewGrid(nx, ny, nz), NewGrid(nx, ny, nz)
	for i := range g.Data {
		// Mixed magnitudes, so that sums round and the order of operations
		// would show.
		g.Data[i] = rng.Norm() * math.Pow(2, float64(rng.Intn(40)-20))
	}
	copy(ref.Data, g.Data)
	g.Forward(levels)
	ref.refForward(levels)
	sameBits(t, "forward", g.Data, ref.Data)
	g.Inverse(levels)
	ref.refInverse(levels)
	sameBits(t, "inverse", g.Data, ref.Data)
}

// gridShapes are the shapes the issue names: every rank, dims 1, 2, 3 and
// primes, a long line, and 3D shapes deep enough for two and three levels.
var gridShapes = [][3]int{
	{1, 1, 1}, {2, 1, 1}, {3, 1, 1}, {1, 2, 1}, {1, 1, 3}, {2, 3, 5}, {7, 1, 13},
	{17, 1, 1}, {611, 1, 1}, {53, 37, 1}, {1, 37, 53}, {16, 16, 1}, {31, 29, 23},
	{40, 33, 17}, {32, 32, 32}, {64, 64, 32},
}

func TestGridMatchesReference(t *testing.T) {
	for i, s := range gridShapes {
		levels := Levels(max(s[0], s[1], s[2]))
		checkGridMatchesReference(t, uint64(i+1), s[0], s[1], s[2], levels)
		// One level more than the codec would ask for: the sub-grids reach
		// lengths 1 and 2 on the short axes.
		checkGridMatchesReference(t, uint64(i+100), s[0], s[1], s[2], levels+1)
	}
}

// TestTallBlockFallsBackToColumns covers the strip width of one: more rows
// than a strip holds samples.
func TestTallBlockFallsBackToColumns(t *testing.T) {
	checkGridMatchesReference(t, 9, 3, tileFloats+5, 1, 2)
	checkGridMatchesReference(t, 10, 2, 1, tileFloats+2, 1)
}

func Test1DMatchesReference(t *testing.T) {
	rng := xrand.New(5)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 16, 17, 611} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Range(-1e6, 1e6)
		}
		ref := append([]float64(nil), x...)
		Forward1D(x)
		refForward1D(ref, nil)
		sameBits(t, "Forward1D", x, ref)
		Inverse1D(x)
		refInverse1D(ref, nil)
		sameBits(t, "Inverse1D", x, ref)
	}
}

// FuzzGridMatchesReference is the differential fuzzer behind the package's
// claim that batching lines changes no coefficient: any shape up to 2^18
// samples, any level count the codec could ask for and a few it could not.
func FuzzGridMatchesReference(f *testing.F) {
	for i, s := range gridShapes {
		f.Add(uint64(i), uint16(s[0]-1), uint16(s[1]-1), uint16(s[2]-1), uint8(Levels(max(s[0], s[1], s[2]))))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nx16, ny16, nz16 uint16, levels uint8) {
		nx, ny, nz := int(nx16%700)+1, int(ny16%80)+1, int(nz16%64)+1
		if nx*ny*nz > 1<<18 {
			t.Skip()
		}
		checkGridMatchesReference(t, seed, nx, ny, nz, int(levels%8))
	})
}
