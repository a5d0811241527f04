package safedec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{ErrTruncated, "truncated"},
		{ErrCorrupt, "corrupt"},
		{ErrLimit, "limit"},
		{errors.New("unrelated"), ""},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
	// Wrapped errors classify through the chain; truncated wins over corrupt
	// when both are present (the common "malformed because it ended early"
	// double wrap).
	both := errors.Join(ErrCorrupt, ErrTruncated)
	if got := Classify(both); got != "truncated" {
		t.Errorf("Classify(corrupt+truncated) = %q, want truncated", got)
	}
}

func TestLimitsNorm(t *testing.T) {
	var l Limits
	n := l.Norm()
	d := Default()
	if n != d {
		t.Fatalf("zero Limits normalized to %+v, want defaults %+v", n, d)
	}
	n = Limits{MaxElements: -5, MaxAlloc: 7, MaxCount: 3}.Norm()
	if n.MaxElements != d.MaxElements || n.MaxAlloc != 7 || n.MaxCount != 3 {
		t.Fatalf("partial Limits normalized to %+v", n)
	}
}

func TestLimitsElements(t *testing.T) {
	l := Limits{MaxElements: 1000}
	if n, err := l.Elements(10, 10, 10); err != nil || n != 1000 {
		t.Fatalf("Elements(10,10,10) = %d, %v", n, err)
	}
	if _, err := l.Elements(10, 10, 11); !errors.Is(err, ErrLimit) {
		t.Fatalf("over-limit product: %v", err)
	}
	for _, d := range [][3]int{{0, 1, 1}, {-1, 1, 1}, {1, maxDim + 1, 1}} {
		if _, err := l.Elements(d[0], d[1], d[2]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("dims %v: err = %v, want ErrCorrupt", d, err)
		}
	}
	// A product that would overflow int64 must be rejected, not wrapped.
	big := 1 << 30
	if _, err := l.Elements(big, big, big); err == nil {
		t.Fatal("overflowing product accepted")
	}
}

func TestLimitsAllocCount(t *testing.T) {
	l := Limits{MaxAlloc: 100, MaxCount: 4}
	if err := l.Alloc("payload", 100); err != nil {
		t.Fatal(err)
	}
	if err := l.Alloc("payload", 101); !errors.Is(err, ErrLimit) {
		t.Fatalf("alloc over limit: %v", err)
	}
	if err := l.Alloc("payload", -1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("negative alloc: %v", err)
	}
	if err := l.Count("chunks", 4); err != nil {
		t.Fatal(err)
	}
	if err := l.Count("chunks", 5); !errors.Is(err, ErrLimit) {
		t.Fatalf("count over limit: %v", err)
	}
	if err := l.Count("chunks", -1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("negative count: %v", err)
	}
}

func TestReaderFixedWidth(t *testing.T) {
	buf := make([]byte, 0, 32)
	buf = append(buf, 0x7F)
	buf = binary.LittleEndian.AppendUint32(buf, 0xDEADBEEF)
	buf = binary.LittleEndian.AppendUint64(buf, 0x0123456789ABCDEF)
	buf = binary.BigEndian.AppendUint64(buf, 42)
	r := NewReader(buf)
	if b, err := r.U8("flag"); err != nil || b != 0x7F {
		t.Fatalf("U8 = %x, %v", b, err)
	}
	if v, err := r.U32("len"); err != nil || v != 0xDEADBEEF {
		t.Fatalf("U32 = %x, %v", v, err)
	}
	if v, err := r.U64("len64"); err != nil || v != 0x0123456789ABCDEF {
		t.Fatalf("U64 = %x, %v", v, err)
	}
	if v, err := r.BE64("bits"); err != nil || v != 42 {
		t.Fatalf("BE64 = %d, %v", v, err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining %d", r.Remaining())
	}
	// Every fixed-width read past the end is ErrTruncated.
	if _, err := r.U8("x"); !errors.Is(err, ErrTruncated) {
		t.Fatalf("U8 past end: %v", err)
	}
	if _, err := r.U32("x"); !errors.Is(err, ErrTruncated) {
		t.Fatalf("U32 past end: %v", err)
	}
	if _, err := r.U64("x"); !errors.Is(err, ErrTruncated) {
		t.Fatalf("U64 past end: %v", err)
	}
	if _, err := r.BE64("x"); !errors.Is(err, ErrTruncated) {
		t.Fatalf("BE64 past end: %v", err)
	}
}

func TestReaderVarintAndTake(t *testing.T) {
	buf := binary.AppendUvarint(nil, 300)
	buf = append(buf, 'a', 'b', 'c')
	r := NewReader(buf)
	if v, err := r.Uvarint("count"); err != nil || v != 300 {
		t.Fatalf("Uvarint = %d, %v", v, err)
	}
	b, err := r.Take("name", 3)
	if err != nil || string(b) != "abc" {
		t.Fatalf("Take = %q, %v", b, err)
	}
	if _, err := r.Take("more", 1); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Take past end: %v", err)
	}
	if _, err := NewReader(nil).Uvarint("count"); !errors.Is(err, ErrTruncated) {
		t.Fatal("varint on empty input must be truncated")
	}
	// Non-terminated varint (all continuation bits).
	if _, err := NewReader([]byte{0x80, 0x80}).Uvarint("count"); !errors.Is(err, ErrTruncated) {
		t.Fatal("unterminated varint must be truncated")
	}
	// Overlong varint (>10 bytes of continuation) is corrupt.
	over := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}
	if _, err := NewReader(over).Uvarint("count"); !errors.Is(err, ErrCorrupt) {
		t.Fatal("overlong varint must be corrupt")
	}
	if _, err := NewReader(buf).Take("neg", -1); !errors.Is(err, ErrCorrupt) {
		t.Fatal("negative Take must be corrupt")
	}
}

func TestReaderRest(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if _, err := r.U8("b"); err != nil {
		t.Fatal(err)
	}
	rest := r.Rest()
	if len(rest) != 2 || rest[0] != 2 || r.Remaining() != 0 {
		t.Fatalf("Rest = %v, remaining %d", rest, r.Remaining())
	}
}

// TestReadN: a backed claim arrives whole, past FirstAlloc too; a short one
// is truncated; and a claim of 1 GiB backed by 1 KiB costs no more heap
// than the first allocation.
func TestReadN(t *testing.T) {
	payload := make([]byte, 2*FirstAlloc+FirstAlloc/2+3)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, n := range []int{0, 1, 4096, len(payload)} {
		got, err := ReadN(bytes.NewReader(payload), int64(n))
		if err != nil || !bytes.Equal(got, payload[:n]) {
			t.Errorf("claim %d: %d bytes, %v", n, len(got), err)
		}
	}
	_, err := ReadN(bytes.NewReader(payload[:100]), 1000)
	if !errors.Is(err, ErrTruncated) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short input: %v, want ErrTruncated and io.ErrUnexpectedEOF", err)
	}
	if _, err := ReadN(bytes.NewReader(nil), -1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("negative claim: %v, want ErrCorrupt", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = ReadN(bytes.NewReader(payload[:1024]), 1<<30)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("unbacked claim: %v, want ErrTruncated", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > FirstAlloc+64<<10 {
		t.Errorf("allocated %d bytes for 1 KiB under a 1 GiB claim, want at most FirstAlloc (%d) and change", grown, FirstAlloc)
	}
}
