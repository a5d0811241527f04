package bitstream

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"carol/internal/fuzzseed"
)

// peekRef is what Peek must return after r has consumed what ref has: the
// next avail bits of ref, left-aligned, zeros below.
func peekRef(ref *refReader, avail uint) uint64 {
	c := *ref // reads on the copy leave ref where it is
	var win uint64
	for i := uint(0); i < avail; i++ {
		b, err := c.ReadBit()
		if err != nil {
			panic("peekRef: avail reaches past the oracle's cap")
		}
		win |= uint64(b) << (63 - i)
	}
	return win
}

// runReaderProgram drives a Reader and the oracle through the same program
// and fails on the first difference in value, error, Consumed or Remaining.
// Program bytes: op%5 selects ReadBit, ReadBits(next%65), ReadUnary,
// Peek+Skip(next%(avail+1)), ReadBool.
func runReaderProgram(t *testing.T, buf []byte, bitLen uint64, prog []byte) {
	t.Helper()
	r := NewReader(buf, bitLen)
	ref := newRefReader(buf, bitLen)
	arg := func(i *int) uint {
		*i++
		if *i < len(prog) {
			return uint(prog[*i])
		}
		return 0
	}
	for i := 0; i < len(prog); i++ {
		var got, want uint64
		var gerr, werr error
		op := prog[i] % 5
		switch op {
		case 0:
			var g, w uint
			g, gerr = r.ReadBit()
			w, werr = ref.ReadBit()
			got, want = uint64(g), uint64(w)
		case 1:
			width := arg(&i) % 65
			got, gerr = r.ReadBits(width)
			want, werr = ref.ReadBits(width)
		case 2:
			var g, w uint
			g, gerr = r.ReadUnary()
			w, werr = ref.ReadUnary()
			got, want = uint64(g), uint64(w)
		case 3:
			win, avail := r.Peek()
			rem := ref.Remaining()
			if uint64(avail) > rem || (avail < 57 && uint64(avail) != rem) {
				t.Fatalf("op %d: Peek avail = %d with %d bits remaining", i, avail, rem)
			}
			if w := peekRef(ref, avail); win != w {
				t.Fatalf("op %d: Peek = %#016x, want %#016x (avail %d)", i, win, w, avail)
			}
			k := arg(&i) % (avail + 1)
			r.Skip(k)
			if _, err := ref.ReadBits(k); err != nil {
				t.Fatalf("op %d: oracle cannot skip %d of %d peeked bits", i, k, avail)
			}
		case 4:
			var g bool
			var w uint
			g, gerr = r.ReadBool()
			w, werr = ref.ReadBit()
			if g {
				got = 1
			}
			want = uint64(w)
		}
		if gerr != werr {
			t.Fatalf("op %d (kind %d): err = %v, oracle %v", i, op, gerr, werr)
		}
		if got != want {
			t.Fatalf("op %d (kind %d): value = %#x, oracle %#x", i, op, got, want)
		}
		if r.Consumed() != ref.Consumed() || r.Remaining() != ref.Remaining() {
			t.Fatalf("op %d (kind %d): consumed/remaining = %d/%d, oracle %d/%d",
				i, op, r.Consumed(), r.Remaining(), ref.Consumed(), ref.Remaining())
		}
	}
}

// splitReaderInput carves a fuzz input into buffer, cap and program:
// byte 0 is the buffer length (mod 41), bytes 1-2 the cap (mod 8*len+10, so
// caps beyond the buffer occur), then the buffer, then the program.
func splitReaderInput(data []byte) (buf []byte, bitLen uint64, prog []byte) {
	if len(data) < 3 {
		return nil, 0, nil
	}
	n := int(data[0]) % 41
	bitLen = uint64(binary.BigEndian.Uint16(data[1:3])) % uint64(8*n+10)
	data = data[3:]
	if n > len(data) {
		n = len(data)
	}
	return data[:n], bitLen, data[n:]
}

func readerOpsSeeds() [][]byte {
	rng := rand.New(rand.NewSource(19))
	var out [][]byte
	for _, n := range []int{0, 7, 9, 40} {
		for _, capBits := range []int{0, 8*n - 3, 8 * n, 8*n + 9} {
			if capBits < 0 {
				continue
			}
			s := []byte{byte(n), byte(capBits >> 8), byte(capBits)}
			for i := 0; i < n; i++ {
				s = append(s, byte(rng.Intn(256)))
			}
			for i := 0; i < 48; i++ {
				s = append(s, byte(rng.Intn(256)))
			}
			out = append(out, s)
		}
	}
	// A run of ones to the end of the stream, read as unary.
	out = append(out, append([]byte{12, 0, 96}, append(allOnes(12), 2, 2, 2)...))
	return out
}

func allOnes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 0xFF
	}
	return b
}

// FuzzReaderOps is the differential test of the windowed Reader against the
// bit-at-a-time one it replaced: same values, same Consumed after every op,
// ErrShortStream at the same op.
func FuzzReaderOps(f *testing.F) {
	for _, s := range readerOpsSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		buf, bitLen, prog := splitReaderInput(data)
		runReaderProgram(t, buf, bitLen, prog)
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus when
// CAROL_WRITE_CORPUS is set; otherwise it asserts the corpus exists.
func TestWriteFuzzCorpus(t *testing.T) {
	fuzzseed.Check(t, ".", map[string][][]byte{"FuzzReaderOps": readerOpsSeeds()})
}

// TestReaderRandomPrograms runs the differential on a few thousand random
// programs, so a plain `go test` covers what the fuzzer explores.
func TestReaderRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(1907))
	for iter := 0; iter < 3000; iter++ {
		buf := make([]byte, rng.Intn(41))
		for i := range buf {
			// Long runs of ones and zeros exercise ReadUnary and the mask.
			switch rng.Intn(4) {
			case 0:
				buf[i] = 0xFF
			case 1:
				buf[i] = 0
			default:
				buf[i] = byte(rng.Intn(256))
			}
		}
		bitLen := uint64(rng.Intn(8*len(buf) + 10))
		prog := make([]byte, 64)
		for i := range prog {
			prog[i] = byte(rng.Intn(256))
		}
		runReaderProgram(t, buf, bitLen, prog)
	}
}

// TestWindowEdges pins the corners of the window: every width 0..64 at every
// bit offset, reads that end exactly on the cap, reads one past it (which
// must consume nothing), and buffers of 0 to 9 bytes.
func TestWindowEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for size := 0; size <= 24; size++ {
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		total := uint(8 * size)
		for off := uint(0); off <= total && off < 72; off++ {
			for width := uint(0); width <= 64; width++ {
				for _, slack := range []uint{0, 1} { // cap on the read's last bit, or one bit short of it
					if slack > width || off+width-slack > total {
						continue
					}
					bitLen := uint64(off + width - slack)
					r := NewReader(buf, bitLen)
					ref := newRefReader(buf, bitLen)
					for left := off; left > 0; left -= min(left, 64) {
						if _, err := r.ReadBits(min(left, 64)); err != nil {
							t.Fatalf("size %d off %d: skip: %v", size, off, err)
						}
						if _, err := ref.ReadBits(min(left, 64)); err != nil {
							t.Fatalf("size %d off %d: oracle skip: %v", size, off, err)
						}
					}
					before := r.Consumed()
					got, gerr := r.ReadBits(width)
					want, werr := ref.ReadBits(width)
					if gerr != werr || got != want {
						t.Fatalf("size %d off %d width %d cap %d: (%#x, %v), oracle (%#x, %v)",
							size, off, width, bitLen, got, gerr, want, werr)
					}
					if gerr != nil && r.Consumed() != before {
						t.Fatalf("size %d off %d width %d: failing read consumed %d bits",
							size, off, width, r.Consumed()-before)
					}
					if gerr == nil && slack == 0 && r.Remaining() != 0 {
						t.Fatalf("size %d off %d width %d: %d bits remain after a read ending on the cap",
							size, off, width, r.Remaining())
					}
				}
			}
		}
	}
}

// TestBitLenIsAnExactCap is the regression test for the bug where a
// declared length of 0 — an untrusted header field at every call site —
// meant "the whole buffer".
func TestBitLenIsAnExactCap(t *testing.T) {
	buf := []byte{0xFF, 0xFF}
	r := NewReader(buf, 0)
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d under a cap of 0", r.Remaining())
	}
	if _, err := r.ReadBit(); err != ErrShortStream {
		t.Fatalf("ReadBit under a cap of 0: err = %v", err)
	}
	if _, err := r.ReadBits(1); err != ErrShortStream {
		t.Fatalf("ReadBits(1) under a cap of 0: err = %v", err)
	}
	if _, avail := r.Peek(); avail != 0 {
		t.Fatalf("Peek under a cap of 0: avail = %d", avail)
	}
	if v, err := r.ReadBits(0); v != 0 || err != nil {
		t.Fatalf("ReadBits(0) = (%d, %v)", v, err)
	}
	r.Reset(buf, 1<<40) // beyond the buffer: clamped to it
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d for a cap beyond a 2-byte buffer", r.Remaining())
	}
}

// TestPeekNeverShowsBitsPastTheCap: the window is masked at the cap even
// though the bytes behind it are loaded.
func TestPeekNeverShowsBitsPastTheCap(t *testing.T) {
	buf := allOnes(16)
	for bitLen := uint64(0); bitLen <= 128; bitLen++ {
		r := NewReader(buf, bitLen)
		var seen uint64
		for {
			win, avail := r.Peek()
			if avail == 0 {
				break
			}
			if want := ^uint64(0) << (64 - avail); win != want {
				t.Fatalf("cap %d after %d bits: window %#016x, want %#016x", bitLen, seen, win, want)
			}
			k := min(avail, 13)
			r.Skip(k)
			seen += uint64(k)
		}
		if seen != bitLen {
			t.Fatalf("cap %d: Peek/Skip walked %d bits", bitLen, seen)
		}
	}
}

func TestSkipPastPeekPanics(t *testing.T) {
	r := NewReader([]byte{0xAA}, 5)
	_, avail := r.Peek()
	defer func() {
		if recover() == nil {
			t.Fatal("Skip(avail+1) did not panic")
		}
	}()
	r.Skip(avail + 1)
}

// TestBitIOAllocs pins the hot bit I/O calls at zero allocations once the
// Writer's buffer has grown.
func TestBitIOAllocs(t *testing.T) {
	w := NewWriter(1 << 12)
	if a := testing.AllocsPerRun(100, func() {
		w.Reset()
		for i := uint(0); i < 400; i++ {
			w.WriteBits(uint64(i)*0x9E3779B97F4A7C15, i%65)
		}
	}); a != 0 {
		t.Errorf("WriteBits: %v allocs/op on a warm Writer", a)
	}
	buf, bitLen := w.Bytes(), w.BitLen()
	var r Reader
	if a := testing.AllocsPerRun(100, func() {
		r.Reset(buf, bitLen)
		for i := uint(0); i < 200; i++ {
			if _, err := r.ReadBits(i % 65); err != nil {
				t.Fatal(err)
			}
		}
		for {
			_, avail := r.Peek()
			if avail == 0 {
				break
			}
			r.Skip(min(avail, 11))
		}
	}); a != 0 {
		t.Errorf("ReadBits/Peek/Skip: %v allocs/op", a)
	}
}

// TestAppendToMatchesBytes: the two ways out of a Writer agree.
func TestAppendToMatchesBytes(t *testing.T) {
	for n := uint(0); n <= 200; n++ {
		w := NewWriter(0)
		for i := uint(0); i < n; i++ {
			w.WriteBits(uint64(i)|1, i%7+1)
		}
		got := w.AppendTo([]byte{0xEE})
		want := append([]byte{0xEE}, w.Bytes()...)
		if string(got) != string(want) {
			t.Fatalf("n=%d: AppendTo and Bytes disagree", n)
		}
		if uint64(len(got)-1) != (w.BitLen()+7)/8 {
			t.Fatalf("n=%d: %d bytes for %d bits", n, len(got)-1, w.BitLen())
		}
	}
}

func BenchmarkReaderPeekSkip(b *testing.B) {
	w := NewWriter(1 << 20)
	for i := 0; i < 1<<16; i++ {
		w.WriteBits(uint64(i), 17)
	}
	buf := w.Bytes()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		r := NewReader(buf, w.BitLen())
		for {
			win, avail := r.Peek()
			if avail < 17 {
				break
			}
			used := uint(0)
			for ; used+17 <= avail; used += 17 {
				sum += win >> 47
				win <<= 17
			}
			r.Skip(used)
		}
	}
	_ = sum
}
