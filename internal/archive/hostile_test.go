package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"carol/internal/safedec"
	"carol/internal/safedec/safedectest"
)

// hostileArchive builds archive bytes claiming one entry with the given
// stream length but carrying only `actual` payload bytes.
func hostileArchive(claimed uint64, actual int) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	var v [binary.MaxVarintLen64]byte
	putUv := func(x uint64) { buf.Write(v[:binary.PutUvarint(v[:], x)]) }
	putUv(1) // one entry
	putUv(1)
	buf.WriteString("a")
	putUv(3)
	buf.WriteString("szx")
	putUv(claimed)
	buf.Write(make([]byte, actual))
	return buf.Bytes()
}

// TestHostileStreamLengthNoUpfrontAlloc is the regression test for
// allocation-before-validation on the entry stream length: a claimed
// multi-GiB length used to become make([]byte, claimed) before a single
// payload byte was read. The reader now grows in bounded steps, so a lying
// length costs at most one step before the stream runs dry.
func TestHostileStreamLengthNoUpfrontAlloc(t *testing.T) {
	start := time.Now()
	_, err := Read(bytes.NewReader(hostileArchive(1<<31, 100)))
	if err == nil {
		t.Fatal("lying stream length accepted")
	}
	if !errors.Is(err, safedec.ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// Generous ceiling: the decode must fail from the missing bytes, not
	// after zeroing gigabytes.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("rejection took %v", d)
	}
}

// TestStreamLengthOverAllocLimit: lengths beyond Limits.MaxAlloc are
// refused as limit errors before any read.
func TestStreamLengthOverAllocLimit(t *testing.T) {
	lim := safedec.Limits{MaxAlloc: 1 << 20}
	stream := hostileArchive(1<<21, 64)
	safedectest.Rejects(t, lim.MaxAlloc, func() error {
		_, err := ReadLimited(bytes.NewReader(stream), lim)
		return err
	})
}

// TestEntryCountOverCountLimit: entry counts beyond Limits.MaxCount are
// refused.
func TestEntryCountOverCountLimit(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	var v [binary.MaxVarintLen64]byte
	buf.Write(v[:binary.PutUvarint(v[:], 1<<16)])
	lim := safedec.Limits{MaxCount: 1 << 10}
	safedectest.Rejects(t, 0, func() error {
		_, err := ReadLimited(&buf, lim)
		return err
	})
}

// TestFieldLimited threads decode limits through entry decompression.
func TestFieldLimited(t *testing.T) {
	w := NewWriter()
	f := testFields(t)[0]
	if err := w.Add("density", "szx", f, 1e-3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.FieldLimited("density", safedec.Default()); err != nil {
		t.Fatal(err)
	}
	safedectest.Rejects(t, 4*100, func() error {
		_, err := a.FieldLimited("density", safedec.Limits{MaxElements: 100})
		return err
	})
}

// cpl1 returns a CPL1 container header claiming the given dims and block
// count, followed by pad zero bytes.
func cpl1(nx, ny, nz, blocks uint32, pad int) []byte {
	b := []byte("CPL1")
	for _, v := range []uint32{nx, ny, nz, blocks} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return append(b, make([]byte, pad)...)
}

// TestRatioRejectsHostileCPL1: Ratio reads a pipeline entry's dims from its
// container header, so every claim there must pass the same checks a
// decode applies. A 24-byte entry claiming 2^32-1 on each axis used to
// report a ratio of 2.1e9.
func TestRatioRejectsHostileCPL1(t *testing.T) {
	const huge = 1<<32 - 1
	cases := map[string]struct {
		stream []byte
		class  error
	}{
		"huge dims":        {cpl1(huge, huge, huge, 1, 4), safedec.ErrCorrupt},
		"over elements":    {cpl1(1<<20, 1<<20, 1, 1, 4), safedec.ErrLimit},
		"zero blocks":      {cpl1(8, 8, 8, 0, 4), safedec.ErrCorrupt},
		"blocks over dims": {cpl1(8, 8, 2, 5, 4), safedec.ErrCorrupt},
		"over count":       {cpl1(8, 8, 8, 1<<21, 4), safedec.ErrLimit},
		"short header":     {cpl1(8, 8, 8, 1, 0)[:18], safedec.ErrTruncated},
	}
	for name, tc := range cases {
		w := NewWriter()
		if err := w.AddRaw(Entry{Name: "p", Codec: "szx", Stream: tc.stream}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		a, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ratio, err := a.Ratio()
		if !errors.Is(err, tc.class) {
			t.Errorf("%s: Ratio = %g, %v; want %v", name, ratio, err, tc.class)
		}
		if _, err := a.Field("p"); !errors.Is(err, tc.class) {
			t.Errorf("%s: Field error %v, want %v", name, err, tc.class)
		}
	}
}
