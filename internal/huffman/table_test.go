package huffman

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"carol/internal/bitstream"
	"carol/internal/fuzzseed"
	"carol/internal/safedec"
	"carol/internal/xrand"
)

// tableStream hand-builds a Huffman stream from a fuzz input, so the table
// can be anything the header format can express — complete, incomplete or
// over-subscribed: byte 0 is the alphabet size (mod 40), bytes 1-2 the
// symbol count (mod 600), byte 3 trims the declared bit length by 0..15
// bits, then one byte per table entry (code length, mod 34: 0 and 33 are the
// invalid lengths either side of the range) and the rest is payload.
// Symbols are the entry's index, except that a length byte with its top bit
// set repeats the previous symbol (the duplicate the decoder must refuse).
func tableStream(data []byte) []byte {
	if len(data) < 4 {
		return nil
	}
	nAlpha := int(data[0]) % 40
	nSyms := uint64(binary.BigEndian.Uint16(data[1:3])) % 600
	trim := uint64(data[3] % 16)
	data = data[4:]
	if nAlpha > len(data) {
		nAlpha = len(data)
	}
	w := bitstream.NewWriter(64)
	w.WriteBits(uint64(nAlpha), 32)
	w.WriteBits(nSyms, 32)
	sym := uint64(0)
	for i := 0; i < nAlpha; i++ {
		if data[i]&0x80 == 0 {
			sym = uint64(i) * 3
		}
		w.WriteBits(sym, 32)
		w.WriteBits(uint64(data[i]&0x7F)%34, 6)
	}
	for _, b := range data[nAlpha:] {
		w.WriteBits(uint64(b), 8)
	}
	bits := w.BitLen()
	if trim < bits {
		bits -= trim
	}
	return w.AppendTo(binary.BigEndian.AppendUint64(nil, bits))
}

// checkAgainstWalk decodes stream with the table-driven decoder and with
// the bit-by-bit walk and requires identical symbols or the same error
// class.
func checkAgainstWalk(t *testing.T, stream []byte) {
	t.Helper()
	lim := safedec.Limits{MaxAlloc: 1 << 20}
	got, gerr := NewDecoder().AppendDecodeLimited(nil, stream, lim)
	want, werr := NewDecoder().refAppendDecodeLimited(nil, stream, lim)
	if (gerr == nil) != (werr == nil) || safedec.Classify(gerr) != safedec.Classify(werr) {
		t.Fatalf("err = %v, walk: %v\nstream %x", gerr, werr, stream)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("symbols differ from the walk's\n got %v\nwant %v\nstream %x", got, want, stream)
	}
}

func tableSeeds() [][]byte {
	rng := rand.New(rand.NewSource(19))
	payload := func(n int) []byte {
		b := make([]byte, n)
		// math/rand's Read always returns len(p), nil.
		_, _ = rng.Read(b)
		return b
	}
	seed := func(nSyms int, trim byte, lens []byte, pay []byte) []byte {
		s := []byte{byte(len(lens)), byte(nSyms >> 8), byte(nSyms), trim}
		return append(append(s, lens...), pay...)
	}
	return [][]byte{
		seed(200, 0, []byte{1, 2, 3, 3}, payload(64)),                                        // complete
		seed(200, 0, []byte{2, 2, 2, 2, 2}, payload(64)),                                     // over-subscribed at one length
		seed(300, 0, []byte{1, 1, 1, 2, 2, 3}, payload(80)),                                  // over-subscribed everywhere
		seed(100, 0, []byte{3, 5, 9}, payload(64)),                                           // incomplete: some prefixes match nothing
		seed(150, 5, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 14}, payload(90)), // codes longer than the prefix table
		seed(40, 0, []byte{12, 13, 20, 32, 32}, payload(120)),
		seed(10, 0, []byte{1, 0x81}, payload(8)), // duplicate symbol
		seed(10, 0, []byte{0, 3}, payload(8)),    // length 0
		seed(10, 0, []byte{33, 3}, payload(8)),   // length 33
		seed(599, 15, []byte{1, 2}, payload(4)),  // payload far too short
		seed(0, 0, nil, nil),
	}
}

// FuzzHuffmanTable is the differential test of the prefix-table decoder
// against the canonical walk it accelerates, over arbitrary tables.
func FuzzHuffmanTable(f *testing.F) {
	for _, s := range tableSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if stream := tableStream(data); stream != nil {
			checkAgainstWalk(t, stream)
		}
		checkAgainstWalk(t, data) // and the bytes as a stream in their own right
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus when
// CAROL_WRITE_CORPUS is set; otherwise it asserts the corpus exists.
func TestWriteFuzzCorpus(t *testing.T) {
	fuzzseed.Check(t, ".", map[string][][]byte{"FuzzHuffmanTable": tableSeeds()})
}

// TestTableMatchesWalk runs the differential over the seeds, random tables
// and real encoder output, whole and truncated.
func TestTableMatchesWalk(t *testing.T) {
	for _, s := range tableSeeds() {
		checkAgainstWalk(t, tableStream(s))
	}
	rng := rand.New(rand.NewSource(2019))
	for iter := 0; iter < 2000; iter++ {
		data := make([]byte, 4+rng.Intn(40)+rng.Intn(100))
		// math/rand's Read always returns len(p), nil.
		_, _ = rng.Read(data)
		if iter%2 == 0 { // short lengths: dense, mostly over-subscribed tables
			for i := 4; i < len(data) && i < 44; i++ {
				data[i] = byte(1 + rng.Intn(6))
			}
		}
		checkAgainstWalk(t, tableStream(data))
	}
	xr := xrand.New(7)
	for _, n := range []int{1, 2, 5, 100, 5000} {
		for _, alphabet := range []int{1, 2, 40, 3000} {
			syms := make([]uint32, n)
			for i := range syms {
				// Squared draw: a skewed histogram with a long tail of long codes.
				v := xr.Intn(alphabet)
				syms[i] = uint32(v * v / alphabet)
			}
			enc := NewEncoder().Encode(syms)
			checkAgainstWalk(t, enc)
			checkAgainstWalk(t, enc[:len(enc)-1])
			short := slices.Clone(enc)
			binary.BigEndian.PutUint64(short, binary.BigEndian.Uint64(short)-3)
			checkAgainstWalk(t, short)
		}
	}
}

// TestOverSubscribedTableDecodesByFirstMatch pins what a malformed table
// means: three codes of length 1 leave the third unreachable, and a 1 bit
// decodes to the second — first match by increasing length — in the prefix
// table exactly as in the walk.
func TestOverSubscribedTableDecodesByFirstMatch(t *testing.T) {
	stream := tableStream([]byte{3, 0, 8, 0, 1, 1, 1, 0b10110100})
	got, err := NewDecoder().Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{3, 0, 3, 3, 0, 3, 0, 0}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	checkAgainstWalk(t, stream)
}

// TestZeroBitLengthRejected is the regression test for the bug where a
// stream declaring a bit length of 0 was read without any cap: the encoder
// never writes fewer than 64 bits, so 0 is corrupt.
func TestZeroBitLengthRejected(t *testing.T) {
	stream := NewEncoder().Encode([]uint32{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4})
	if _, err := NewDecoder().Decode(stream); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		stream[i] = 0
	}
	if _, err := NewDecoder().Decode(stream); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit length 0: err = %v, want ErrCorrupt", err)
	}
	if got := NewEncoder().Encode(nil); binary.BigEndian.Uint64(got) != 64 {
		t.Fatalf("empty input encodes to %d bits, want 64", binary.BigEndian.Uint64(got))
	}
}

// TestDecoderSteadyStateAllocs pins the warm decoder — prefix table
// included — at zero allocations per call.
func TestDecoderSteadyStateAllocs(t *testing.T) {
	rng := xrand.New(1)
	s := make([]uint32, 1<<12)
	for i := range s {
		s[i] = uint32(rng.Intn(64))
	}
	enc := NewEncoder().Encode(s)
	d := NewDecoder()
	dst, err := d.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if dst, err = d.AppendDecodeLimited(dst[:0], enc, safedec.Default()); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("%v allocs/op on a warm Decoder", a)
	}
}

// TestEncoderSteadyStateAllocs pins the warm encoder appending into a
// reused destination (BenchmarkEncoderSteadyState's input) at zero
// allocations.
func TestEncoderSteadyStateAllocs(t *testing.T) {
	rng := xrand.New(1)
	s := make([]uint32, 1<<16)
	for i := range s {
		s[i] = uint32(rng.Intn(64))
	}
	e := NewEncoder()
	dst := e.Encode(s)
	if a := testing.AllocsPerRun(50, func() {
		dst = e.AppendEncode(dst[:0], s)
	}); a != 0 {
		t.Fatalf("%v allocs/op on a warm Encoder", a)
	}
}
