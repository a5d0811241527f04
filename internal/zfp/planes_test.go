package zfp

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"carol/internal/bitstream"
	"carol/internal/fuzzseed"
)

// planeCase is one decoded FuzzPlanes input.
type planeCase struct {
	size   int   // 4, 16 or 64 coefficients
	kmin   int   // 0..31
	budget int64 // -1 or 0..300
	skew   uint  // bits both sides read/write first, so windows are unaligned
	decode bool  // rest is stream bits (true) or coefficients (false)
	rest   []byte
}

func parsePlaneCase(data []byte) (planeCase, bool) {
	if len(data) < 6 {
		return planeCase{}, false
	}
	return planeCase{
		size:   []int{4, 16, 64}[data[0]%3],
		kmin:   int(data[1] % 32),
		budget: int64(binary.BigEndian.Uint16(data[2:4])%302) - 1,
		skew:   uint(data[4] % 64),
		decode: data[5]&1 == 1,
		rest:   data[6:],
	}, true
}

// checkPlaneCase runs one case through the run-coded plane coder and the
// bit-by-bit oracle and fails on any difference.
func checkPlaneCase(t *testing.T, c planeCase) {
	t.Helper()
	if c.decode {
		checkDecodeAgainstRef(t, c, c.rest, uint64(8*len(c.rest)))
		// The same bits cut short at every byte and a few odd lengths: the
		// stream tail is where the window runs dry.
		for _, cut := range []uint64{0, 1, 7, 9, 63, 64, 65} {
			if total := uint64(8 * len(c.rest)); cut < total {
				checkDecodeAgainstRef(t, c, c.rest, total-cut)
			}
		}
		return
	}
	u := make([]uint32, c.size)
	for i := range u {
		if 4*i+4 <= len(c.rest) {
			u[i] = binary.LittleEndian.Uint32(c.rest[4*i:])
		}
	}
	got, want := bitstream.NewWriter(64), bitstream.NewWriter(64)
	got.WriteBits(0x2AAAAAAAAAAAAAAA, c.skew)
	want.WriteBits(0x2AAAAAAAAAAAAAAA, c.skew)
	gn := encodePlanes(got, u, c.kmin, c.budget)
	wn := refEncodePlanes(want, u, c.kmin, c.budget)
	if gn != wn || got.BitLen() != want.BitLen() || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("encode size=%d kmin=%d budget=%d skew=%d: %d bits (returned %d), oracle %d (returned %d)\n got %x\nwant %x",
			c.size, c.kmin, c.budget, c.skew, got.BitLen(), gn, want.BitLen(), wn, got.Bytes(), want.Bytes())
	}
	// And the stream just written decodes alike, whole and truncated.
	stream, bits := got.Bytes(), got.BitLen()
	checkDecodeAgainstRef(t, c, stream, bits)
	if bits > uint64(c.skew)+3 {
		checkDecodeAgainstRef(t, c, stream, bits-3)
		checkDecodeAgainstRef(t, c, stream, uint64(c.skew)+(bits-uint64(c.skew))/2)
	}
}

func checkDecodeAgainstRef(t *testing.T, c planeCase, stream []byte, bits uint64) {
	t.Helper()
	gr, wr := bitstream.NewReader(stream, bits), bitstream.NewReader(stream, bits)
	if _, err := gr.ReadBits(c.skew); err != nil {
		return // fewer bits than the skew: nothing to decode
	}
	wr.ReadBits(c.skew)
	gu, wu := make([]uint32, c.size), make([]uint32, c.size)
	gn := decodePlanes(gr, gu, c.kmin, c.budget)
	wn := refDecodePlanes(wr, wu, c.kmin, c.budget)
	if gn != wn || gr.Consumed() != wr.Consumed() {
		t.Fatalf("decode size=%d kmin=%d budget=%d skew=%d bits=%d: consumed %d (returned %d), oracle %d (returned %d)",
			c.size, c.kmin, c.budget, c.skew, bits, gr.Consumed(), gn, wr.Consumed(), wn)
	}
	for i := range gu {
		if gu[i] != wu[i] {
			t.Fatalf("decode size=%d kmin=%d budget=%d skew=%d bits=%d: u[%d] = %#x, oracle %#x",
				c.size, c.kmin, c.budget, c.skew, bits, i, gu[i], wu[i])
		}
	}
}

func planeSeeds() [][]byte {
	rng := rand.New(rand.NewSource(19))
	var out [][]byte
	add := func(size, kmin byte, budget int, skew byte, decode bool, rest []byte) {
		s := []byte{size, kmin, byte((budget + 1) >> 8), byte(budget + 1), skew, 0}
		if decode {
			s[5] = 1
		}
		out = append(out, append(s, rest...))
	}
	coeffs := func(n int, f func(i int) uint32) []byte {
		b := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(b[4*i:], f(i))
		}
		return b
	}
	decaying := func(i int) uint32 { return uint32(rng.Uint64()) >> uint(rng.Intn(28)) >> uint(i/4) }
	for size := byte(0); size < 3; size++ {
		for _, budget := range []int{-1, 0, 1, 17, 100, 300} {
			add(size, byte(rng.Intn(12)), budget, byte(rng.Intn(64)), false, coeffs(64, decaying))
		}
	}
	// Only the last coefficient set: the longest run, its final 1 implied.
	add(2, 0, -1, 0, false, coeffs(64, func(i int) uint32 {
		if i == 63 {
			return 1 << 31
		}
		return 0
	}))
	add(2, 0, -1, 5, false, coeffs(64, func(i int) uint32 { return ^uint32(0) }))
	add(2, 31, 40, 63, false, coeffs(64, func(i int) uint32 { return 1 << 31 }))
	// Arbitrary bits, and all-ones / all-zeros streams.
	noise := make([]byte, 96)
	rng.Read(noise)
	add(2, 3, -1, 11, true, noise)
	add(1, 0, 200, 0, true, noise[:40])
	add(2, 0, -1, 1, true, bytes.Repeat([]byte{0xFF}, 64))
	add(2, 0, -1, 0, true, append([]byte{0x80}, make([]byte, 40)...))
	return out
}

// FuzzPlanes is the differential test of the run-coded plane coder against
// the bit-by-bit one it replaced: random coefficients, cutoff and budget
// give identical bits; random or mutated bits give identical coefficients
// and leave the reader at the identical position.
func FuzzPlanes(f *testing.F) {
	for _, s := range planeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := parsePlaneCase(data); ok {
			checkPlaneCase(t, c)
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus when
// CAROL_WRITE_CORPUS is set; otherwise it asserts the corpus exists.
func TestWriteFuzzCorpus(t *testing.T) {
	fuzzseed.Check(t, ".", map[string][][]byte{"FuzzPlanes": planeSeeds()})
}

// TestPlanesMatchReference sweeps the differential over random cases so a
// plain `go test` covers both modes, all three block sizes and every budget.
func TestPlanesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	for iter := 0; iter < 4000; iter++ {
		c := planeCase{
			size:   []int{4, 16, 64}[rng.Intn(3)],
			kmin:   rng.Intn(32),
			budget: int64(rng.Intn(302)) - 1,
			skew:   uint(rng.Intn(64)),
			decode: rng.Intn(4) == 0,
		}
		if c.decode {
			c.rest = make([]byte, rng.Intn(120))
			rng.Read(c.rest)
			if rng.Intn(3) == 0 { // sparse bits: long zero runs
				for i := range c.rest {
					c.rest[i] &= byte(rng.Intn(256)) & byte(rng.Intn(256)) & byte(rng.Intn(256))
				}
			}
		} else {
			c.rest = make([]byte, 4*c.size)
			density := rng.Intn(4)
			for i := 0; i < c.size; i++ {
				v := uint32(rng.Uint64()) >> uint(rng.Intn(30))
				for d := 0; d < density; d++ {
					v &= uint32(rng.Uint64())
				}
				binary.LittleEndian.PutUint32(c.rest[4*i:], v)
			}
		}
		checkPlaneCase(t, c)
	}
}

// TestPlaneMasks checks the 8x8 bit-block transpose against the definition
// on every plane at or above kmin.
func TestPlaneMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 300; iter++ {
		size := []int{4, 16, 64}[iter%3]
		kmin := rng.Intn(32)
		u := make([]uint32, size)
		for i := range u {
			u[i] = uint32(rng.Uint64()) >> uint(rng.Intn(32))
		}
		var planes [32]uint64
		planeMasks(&planes, u, kmin)
		for k := kmin; k < 32; k++ {
			var want uint64
			for i, c := range u {
				want |= uint64(c>>uint(k)&1) << uint(i)
			}
			if planes[k] != want {
				t.Fatalf("size %d kmin %d: plane %d = %#x, want %#x", size, kmin, k, planes[k], want)
			}
		}
	}
}

// TestBlockCodecAllocs pins encodeBlock and decodeBlock at zero allocations
// on a warm writer: the plane coder's scratch lives on the stack.
func TestBlockCodecAllocs(t *testing.T) {
	for dims := 1; dims <= 3; dims++ {
		sh := shapes[dims]
		rng := rand.New(rand.NewSource(int64(dims)))
		blk := make([]float64, sh.size)
		var maxAbs float64
		for i := range blk {
			blk[i] = rng.NormFloat64()
			maxAbs = max(maxAbs, math.Abs(blk[i]))
		}
		w := bitstream.NewWriter(1 << 12)
		if a := testing.AllocsPerRun(200, func() {
			w.Reset()
			encodeBlock(w, blk, maxAbs, sh, 1e-4)
		}); a != 0 {
			t.Errorf("dims %d: encodeBlock %v allocs/op", dims, a)
		}
		stream, bits := w.Bytes(), w.BitLen()
		var r bitstream.Reader
		out := make([]float64, sh.size)
		if a := testing.AllocsPerRun(200, func() {
			r.Reset(stream, bits)
			if err := decodeBlock(&r, out, sh); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("dims %d: decodeBlock %v allocs/op", dims, a)
		}
	}
}
