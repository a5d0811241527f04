package sperr

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"carol/internal/bitstream"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/wavelet"
	"carol/internal/xrand"
	"carol/internal/zpool"
)

// speckShapes are the shapes the issue names: every rank, dims 1, 2, 3 and
// primes, a long line, and 3D shapes deep enough for two and three levels.
var speckShapes = [][3]int{
	{1, 1, 1}, {2, 1, 1}, {3, 1, 1}, {1, 2, 1}, {1, 1, 3}, {2, 3, 5}, {7, 1, 13},
	{17, 1, 1}, {611, 1, 1}, {53, 37, 1}, {1, 37, 53}, {16, 16, 1}, {31, 29, 23},
	{40, 33, 17}, {32, 32, 32}, {64, 64, 32},
}

// TestNodeTableMatchesRegionChildren walks the flat table beside the
// reference partition: same children, same order, leaves where the reference
// has single samples, and exactly the node count sized up front.
func TestNodeTableMatchesRegionChildren(t *testing.T) {
	for _, s := range speckShapes {
		nx, ny, nz := s[0], s[1], s[2]
		tab := tableFor(nx, ny, nz)
		type pair struct {
			r  region
			id uint32
		}
		root := region{0, 0, 0, nx, ny, nz}
		var walk []pair
		if !root.leaf() {
			walk = append(walk, pair{root, 0})
		}
		var buf [8]region
		for i := 0; i < len(walk); i++ {
			p := walk[i]
			kids := tab.node[tab.first[p.id]:tab.first[p.id+1]]
			want := p.r.children(buf[:0])
			if len(kids) != len(want) {
				t.Fatalf("%v: node %d (%v) has %d children, reference %d", s, p.id, p.r, len(kids), len(want))
			}
			for j, c := range want {
				switch {
				case c.leaf():
					if idx := uint32((c.z*ny+c.y)*nx + c.x); kids[j] != tab.nInt+idx {
						t.Fatalf("%v: node %d child %d = %d, want leaf %d", s, p.id, j, kids[j], idx)
					}
				case kids[j] >= tab.nInt:
					t.Fatalf("%v: node %d child %d is a leaf, reference %v", s, p.id, j, c)
				default:
					walk = append(walk, pair{c, kids[j]})
				}
			}
		}
		if len(walk) != int(tab.nInt) || len(walk) != interiorNodes(nx, ny, nz) {
			t.Fatalf("%v: walked %d interior nodes, table %d, counted %d", s, len(walk), tab.nInt, interiorNodes(nx, ny, nz))
		}
		for i, p := range walk { // breadth-first numbering
			if p.id != uint32(i) {
				t.Fatalf("%v: node %d visited at position %d", s, p.id, i)
			}
		}
		if tab.node[0] != 0 || int(tab.first[tab.nInt]) != len(tab.node) || len(tab.node) != int(tab.nInt)+nx*ny*nz {
			t.Fatalf("%v: root %d, %d ids handed out of %d", s, tab.node[0], tab.first[tab.nInt], len(tab.node))
		}
	}
}

// TestParityIsTheRefinementBit pins the integer refinement bit against the
// math.Mod test it replaces, for thresholds 2^k down into the denormals and
// magnitudes up to the 2^49 thresholds the coder can meet.
func TestParityIsTheRefinementBit(t *testing.T) {
	rng := xrand.New(7)
	check := func(mag, T float64) {
		t.Helper()
		want := math.Mod(mag, 2*T) >= T
		if got := uint64(mag/T)&1 == 1; got != want {
			t.Fatalf("mag %g (%x), T %g: parity %v, math.Mod %v", mag, math.Float64bits(mag), T, got, want)
		}
	}
	for i := 0; i < 200000; i++ {
		k := rng.Intn(1074+1000) - 1074
		T := math.Ldexp(1, k)
		// A 53-bit mantissa anywhere in [0, 2^49·T).
		mag := math.Ldexp(float64(rng.Uint64()>>11), k-52+rng.Intn(50))
		check(mag, T)
		check(math.Floor(mag/T)*T, T)              // exactly on a multiple
		check(math.Nextafter(mag, math.Inf(1)), T) // and one ulp beside it
	}
	for _, mag := range []float64{0, 5e-324, 1e-310, 2.2250738585072014e-308} {
		for k := -1074; k < -1000; k++ {
			check(mag, math.Ldexp(1, k))
		}
	}
}

// speckCase is one seeded coefficient grid and coding plan.
type speckCase struct {
	nx, ny, nz int
	coeffs     []float64
	t0         float64
	nPasses    int
}

// newSpeckCase draws coefficients the way a wavelet leaves them — most
// small, a few large, both signs, exact zeros — and plans as the codec does.
func newSpeckCase(seed uint64, nx, ny, nz, nPasses int) speckCase {
	rng := xrand.New(seed)
	c := speckCase{nx: nx, ny: ny, nz: nz, coeffs: make([]float64, nx*ny*nz), nPasses: nPasses}
	var maxAbs float64
	for i := range c.coeffs {
		if rng.Intn(8) == 0 {
			continue
		}
		c.coeffs[i] = rng.Norm() * math.Pow(2, float64(rng.Intn(30)-22))
		maxAbs = math.Max(maxAbs, math.Abs(c.coeffs[i]))
	}
	if maxAbs == 0 {
		c.coeffs[0], maxAbs = -3, 3
	}
	c.t0 = math.Pow(2, math.Floor(math.Log2(maxAbs)))
	return c
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: coefficient %d = %g (%x), reference %g (%x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkSPECKMatchesReference codes c with the production coder and the
// reference: identical bits, bit length and encoder reconstruction, with and
// without recon; identical decoder output for the whole stream and for the
// prefixes fracs name.
func checkSPECKMatchesReference(t *testing.T, s *scratch, c speckCase, fracs ...float64) {
	t.Helper()
	n := len(c.coeffs)
	refW, refRecon := bitstream.NewWriter(n), make([]float64, n)
	refEncodeSPECK(refW, refRecon, c.coeffs, c.nx, c.ny, c.nz, c.t0, c.nPasses)
	for _, withRecon := range []bool{true, false} {
		var recon []float64
		if withRecon {
			recon = make([]float64, n)
			recon[n/2] = math.NaN() // the coder must overwrite, not assume zero
		}
		w := bitstream.NewWriter(0)
		s.encodeSPECK(w, recon, c.coeffs, c.nx, c.ny, c.nz, c.t0, c.nPasses)
		if w.BitLen() != refW.BitLen() || !bytes.Equal(w.Bytes(), refW.Bytes()) {
			t.Fatalf("recon %v: %d bits, reference %d, or the bytes differ", withRecon, w.BitLen(), refW.BitLen())
		}
		if withRecon {
			sameFloats(t, "encoder recon", recon, refRecon)
		}
	}
	stream, bits := refW.Bytes(), refW.BitLen()
	for _, frac := range append(fracs, 1) {
		budget, partial := int64(-1), frac < 1
		limit := bits
		if partial {
			budget = int64(frac * float64(bits))
			limit = uint64(budget)
		}
		want := make([]float64, n)
		if err := refDecodeSPECK(bitstream.NewReader(stream, bits), want, c.nx, c.ny, c.nz, c.t0, c.nPasses, budget); err != nil {
			t.Fatalf("frac %g: reference: %v", frac, err)
		}
		got := make([]float64, n)
		got[n/2] = math.NaN()
		if err := s.decodeSPECK(bitstream.NewReader(stream, limit), got, c.nx, c.ny, c.nz, c.t0, c.nPasses, partial); err != nil {
			t.Fatalf("frac %g: %v", frac, err)
		}
		sameFloats(t, "decoder recon", got, want)
	}
	// A stream that ends early is an error unless the caller asked for a prefix.
	if bits > 1 {
		err := s.decodeSPECK(bitstream.NewReader(stream, bits-1), make([]float64, n), c.nx, c.ny, c.nz, c.t0, c.nPasses, false)
		if err == nil {
			t.Fatal("stream one bit short decoded without an error")
		}
	}
}

func TestSPECKMatchesReference(t *testing.T) {
	s := new(scratch) // one scratch across shapes: every list must follow the dims
	for i, sh := range speckShapes {
		planes := []int{1, 2, 9, 21, maxPasses}
		if sh[0]*sh[1]*sh[2] > 1<<15 { // the reference coder is slow
			planes = []int{13}
		}
		for _, nPasses := range planes {
			c := newSpeckCase(uint64(i*100+nPasses), sh[0], sh[1], sh[2], nPasses)
			checkSPECKMatchesReference(t, s, c, 0.1, 0.5, 0.9)
		}
	}
}

// FuzzSPECKMatchesReference is the differential fuzzer behind "every stream
// byte-identical": any shape up to 2^16 coefficients, any plane count, any
// prefix.
func FuzzSPECKMatchesReference(f *testing.F) {
	for i, sh := range speckShapes {
		f.Add(uint64(i), uint16(sh[0]-1), uint16(sh[1]-1), uint16(sh[2]-1), uint8(12), uint8(i*16))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nx16, ny16, nz16 uint16, passes, frac uint8) {
		nx, ny, nz := int(nx16%700)+1, int(ny16%80)+1, int(nz16%64)+1
		if nx*ny*nz > 1<<16 && [3]int{nx, ny, nz} != [3]int{64, 64, 32} {
			t.Skip()
		}
		c := newSpeckCase(seed, nx, ny, nz, int(passes)%maxPasses+1)
		checkSPECKMatchesReference(t, new(scratch), c, float64(frac)/256)
	})
}

// refDecompressProgressive is decompress as it was before PR 21 for
// frac < 1: the SPECK prefix through the reference decoder, no outliers.
func refDecompressProgressive(t *testing.T, stream []byte, frac float64) *field.Field {
	t.Helper()
	h, rest, err := compressor.ParseHeader(stream, compressor.MagicSPERR)
	if err != nil {
		t.Fatal(err)
	}
	p, err := zpool.Inflate(rest, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	t0 := math.Float64frombits(binary.LittleEndian.Uint64(p))
	levels, nPasses := int(binary.LittleEndian.Uint32(p[8:])), int(p[12])
	nOut := binary.LittleEndian.Uint32(p[13:])
	p = p[fixedLen:]
	for i := uint32(0); i < 2*nOut; i++ {
		_, k := binary.Uvarint(p)
		p = p[k:]
	}
	bits := binary.LittleEndian.Uint64(p)
	g := wavelet.NewGrid(h.Nx, h.Ny, h.Nz)
	err = refDecodeSPECK(bitstream.NewReader(p[8:], bits), g.Data, h.Nx, h.Ny, h.Nz, t0, nPasses, int64(frac*float64(bits)))
	if err != nil {
		t.Fatal(err)
	}
	g.Inverse(levels)
	f := field.New("sperr", h.Nx, h.Ny, h.Nz)
	for i, v := range g.Data {
		f.Data[i] = float32(v)
	}
	return f
}

func TestProgressiveMatchesReferencePrefix(t *testing.T) {
	for _, sh := range [][3]int{{611, 1, 1}, {53, 37, 1}, {40, 33, 17}} {
		f := smoothField(sh[0], sh[1], sh[2], 21)
		stream, err := New().Compress(f, compressor.AbsBound(f, 1e-4))
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.1, 0.5, 0.9} {
			got, err := DecompressProgressive(stream, frac)
			if err != nil {
				t.Fatal(err)
			}
			want := refDecompressProgressive(t, stream, frac)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%v frac %g: sample %d = %g, reference %g", sh, frac, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestEstimateSampledBitsIsTheReferenceCoder: the surrogate shares the
// codec's front half and coder, so its bit count is the reference coder's on
// the same plan, to the bit.
func TestEstimateSampledBitsIsTheReferenceCoder(t *testing.T) {
	for _, sh := range [][3]int{{96, 1, 1}, {32, 32, 8}, {24, 20, 18}} {
		f := smoothField(sh[0], sh[1], sh[2], 7)
		for _, rel := range []float64{1e-1, 1e-3, 1e-5} {
			eb := compressor.AbsBound(f, rel)
			s := new(scratch)
			_, t0, nPasses := s.plan(f, eb)
			want := uint64(8)
			if nPasses > 0 {
				w := bitstream.NewWriter(0)
				refEncodeSPECK(w, make([]float64, f.Len()), s.g.Data, f.Nx, f.Ny, f.Nz, t0, nPasses)
				want = w.BitLen()
			}
			if got := EstimateSampledBits(f, eb); got != want {
				t.Fatalf("%v rel %g: estimated %d bits, reference coder %d", sh, rel, got, want)
			}
		}
	}
	if got := EstimateSampledBits(field.New("zero", 8, 8, 8), 1e-3); got != 8 {
		t.Fatalf("zero field: %d bits, want the 8-bit floor", got)
	}
}

// perRun is testing.AllocsPerRun with a collection before every run, and the
// bytes next to the objects.
func perRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var nObj, nBytes uint64
	for i := 0; i <= runs; i++ { // run 0 warms up
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if i > 0 {
			nObj += after.Mallocs - before.Mallocs
			nBytes += after.TotalAlloc - before.TotalAlloc
		}
	}
	return float64(nObj) / float64(runs), float64(nBytes) / float64(runs)
}

// TestSPERRSteadyStateAllocs pins what a warm codec allocates: the result
// and a constant (after a collection zpool's sync.Pools re-register, an
// object or two), with a collection between runs to prove the scratch
// survives one. (It was 51 objects and 5.6 MB per 32^3 compress, 38 and
// 2.3 MB per decompress.)
func TestSPERRSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	c := New()
	f := smoothField(32, 32, 32, 3)
	eb := compressor.AbsBound(f, 1e-3)
	stream, err := c.Compress(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	objects, size := perRun(10, func() {
		if _, err := c.Compress(f, eb); err != nil {
			t.Fatal(err)
		}
	})
	if objects > 4 || size > float64(2*len(stream)+1024) {
		t.Errorf("compress: %.1f objects, %.0f bytes per run for a %d-byte stream", objects, size, len(stream))
	}
	objects, size = perRun(10, func() {
		if _, err := c.Decompress(stream); err != nil {
			t.Fatal(err)
		}
	})
	if objects > 5 || size > float64(f.SizeBytes()+1024) {
		t.Errorf("decompress: %.1f objects, %.0f bytes per run for a %d-byte field", objects, size, f.SizeBytes())
	}
}

// TestScratchPoolDropsLargeFields: a scratch set that served a field over
// the cap is not pooled, so one huge request cannot pin its buffers.
func TestScratchPoolDropsLargeFields(t *testing.T) {
	f := field.New("long", maxPooledSamples+1, 1, 1)
	for i := range f.Data {
		f.Data[i] = float32(i % 17)
	}
	if _, err := New().Compress(f, 0.5); err != nil {
		t.Fatal(err)
	}
	var held []*scratch
	for len(scratchPool) > 0 {
		held = append(held, <-scratchPool)
	}
	for _, s := range held {
		if cap(s.g.Data) > maxPooledSamples {
			t.Errorf("pooled scratch holds a %d-sample grid, cap %d", cap(s.g.Data), maxPooledSamples)
		}
		putScratch(s)
	}
}
