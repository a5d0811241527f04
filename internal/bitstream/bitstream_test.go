package bitstream

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(16)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if got, want := w.BitLen(), uint64(len(pattern)); got != want {
		t.Fatalf("BitLen = %d, want %d", got, want)
	}
	r := NewReader(w.Bytes(), w.BitLen())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	if _, err := r.ReadBit(); err != ErrShortStream {
		t.Fatalf("expected ErrShortStream after end, got %v", err)
	}
}

func TestWriteBitsWidths(t *testing.T) {
	w := NewWriter(64)
	vals := []struct {
		v     uint64
		width uint
	}{
		{0, 1}, {1, 1}, {0x5, 3}, {0xff, 8}, {0x1234, 16},
		{0xdeadbeef, 32}, {0x0123456789abcdef, 64}, {0x7, 5}, {1, 64},
	}
	for _, tc := range vals {
		w.WriteBits(tc.v, tc.width)
	}
	r := NewReader(w.Bytes(), w.BitLen())
	for i, tc := range vals {
		got, err := r.ReadBits(tc.width)
		if err != nil {
			t.Fatalf("ReadBits %d: %v", i, err)
		}
		want := tc.v
		if tc.width < 64 {
			want &= (1 << tc.width) - 1
		}
		if got != want {
			t.Fatalf("field %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xffff, 4) // only low 4 bits should land
	r := NewReader(w.Bytes(), w.BitLen())
	got, err := r.ReadBits(4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xf {
		t.Fatalf("got %#x, want 0xf", got)
	}
}

func TestZeroWidthIsNoop(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0xff, 0)
	if w.BitLen() != 0 {
		t.Fatalf("zero-width write changed length: %d", w.BitLen())
	}
	r := NewReader(w.Bytes(), w.BitLen())
	v, err := r.ReadBits(0)
	if err != nil || v != 0 {
		t.Fatalf("zero-width read = (%d, %v)", v, err)
	}
}

func TestReaderBitLenCap(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0b101, 3)
	r := NewReader(w.Bytes(), w.BitLen())
	if r.Remaining() != 3 {
		t.Fatalf("Remaining = %d, want 3", r.Remaining())
	}
	if _, err := r.ReadBits(4); err != ErrShortStream {
		t.Fatalf("read past BitLen: err = %v, want ErrShortStream", err)
	}
	if v, err := r.ReadBits(3); err != nil || v != 0b101 {
		t.Fatalf("ReadBits(3) = (%#b, %v)", v, err)
	}
}

func TestBytesIsIdempotent(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0xabc, 12)
	b1 := w.Bytes()
	b2 := w.Bytes()
	if len(b1) != len(b2) {
		t.Fatalf("Bytes() changed length across calls: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("Bytes() not idempotent at %d", i)
		}
	}
}

// Property: any sequence of (value, width) fields round-trips exactly.
func TestQuickFieldRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		type fieldSpec struct {
			v     uint64
			width uint
		}
		specs := make([]fieldSpec, count)
		w := NewWriter(count * 8)
		for i := range specs {
			width := uint(rng.Intn(64) + 1)
			v := rng.Uint64()
			if width < 64 {
				v &= (1 << width) - 1
			}
			specs[i] = fieldSpec{v, width}
			w.WriteBits(v, width)
		}
		r := NewReader(w.Bytes(), w.BitLen())
		for _, s := range specs {
			got, err := r.ReadBits(s.width)
			if err != nil || got != s.v {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: total bit length accounting matches the sum of widths.
func TestQuickBitLenAccounting(t *testing.T) {
	f := func(widths []uint8) bool {
		w := NewWriter(len(widths))
		var want uint64
		for _, wd := range widths {
			width := uint(wd % 65)
			w.WriteBits(0, width)
			want += uint64(width)
		}
		return w.BitLen() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriterWriteBits(b *testing.B) {
	w := NewWriter(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.WriteBits(uint64(i), uint(i%63)+1)
	}
}

func BenchmarkReaderReadBits(b *testing.B) {
	w := NewWriter(1 << 20)
	for i := 0; i < 1<<16; i++ {
		w.WriteBits(uint64(i), 17)
	}
	buf := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf, w.BitLen())
		for r.Remaining() >= 17 {
			if _, err := r.ReadBits(17); err != nil {
				b.Fatal(err)
			}
		}
	}
}
