package zpool

import (
	"bytes"
	"compress/flate"
	"runtime"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte("the quick brown fox "), 200)
	enc, err := AppendDeflate(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Inflate(enc, int64(len(data))+1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestAppendDeflatePreservesPrefix(t *testing.T) {
	prefix := []byte{0xde, 0xad}
	out, err := AppendDeflate(prefix, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:2], prefix) {
		t.Fatal("prefix clobbered")
	}
	dec, err := Inflate(out[2:], 64)
	if err != nil {
		t.Fatal(err)
	}
	if string(dec) != "payload" {
		t.Fatalf("got %q", dec)
	}
}

func TestAppendInflateReusesCallerMemory(t *testing.T) {
	data := bytes.Repeat([]byte("abcdefgh"), 4000)
	enc, err := AppendDeflate(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	buf := append(make([]byte, 0, len(data)+16), "head"...)
	out, err := AppendInflate(buf, enc, int64(len(data))+1)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[0] || string(out[:4]) != "head" || !bytes.Equal(out[4:], data) {
		t.Fatalf("output not appended in place: %d bytes, same array %v", len(out), &out[0] == &buf[0])
	}
	// The limit counts appended bytes, and a buffer without room grows.
	out, err = AppendInflate([]byte("head"), enc, 100)
	if err != nil || len(out) != 104 {
		t.Fatalf("limit 100 after a 4-byte prefix: %d bytes, err %v", len(out), err)
	}
}

func TestInflateMatchesStdlib(t *testing.T) {
	// Pooled output must be byte-identical to a fresh flate.Writer at the
	// same level — the codecs' stream stability depends on it.
	data := bytes.Repeat([]byte{1, 2, 3, 4, 5, 0, 0, 0}, 500)
	var want bytes.Buffer
	zw, err := flate.NewWriter(&want, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // repeat: pooled state must not leak across calls
		got, err := AppendDeflate(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("iteration %d: pooled deflate differs from stdlib", i)
		}
	}
}

func TestInflateLimit(t *testing.T) {
	data := make([]byte, 10000)
	enc, err := AppendDeflate(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Inflate(enc, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("limit ignored: got %d bytes", len(out))
	}
}

func TestInflateCorrupt(t *testing.T) {
	if _, err := Inflate([]byte{0xff, 0xff, 0xff, 0xff}, 1<<20); err == nil {
		t.Fatal("corrupt stream accepted")
	}
}

func TestInflateTruncated(t *testing.T) {
	enc, err := AppendDeflate(nil, bytes.Repeat([]byte("abc"), 1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Inflate(enc[:len(enc)/2], 1<<20); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// TestInflatePoolRetention is the regression test for the pooled-inflater
// leak carollint's poolreset analyzer found: Inflate must reset its
// bytes.Reader to nil before pooling, or the pool pins the caller's input
// alive (and visible to the next user). Under the race detector sync.Pool
// drops Puts at random, in which case Get constructs a fresh inflater
// whose reader is empty and the assertion holds vacuously.
func TestInflatePoolRetention(t *testing.T) {
	enc, err := AppendDeflate(nil, bytes.Repeat([]byte("payload "), 64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Inflate(enc, 1<<16); err != nil {
		t.Fatal(err)
	}
	i := infPool.Get().(*inflater)
	defer infPool.Put(i)
	if i.br.Size() != 0 {
		t.Fatalf("pooled inflater retains %d bytes of caller input", i.br.Size())
	}
}

// TestFreeListBoundedAndSurvivesGC: the list hands back what it was given,
// across collections, keeps no more than its capacity, and makes a zero
// object when empty.
func TestFreeListBoundedAndSurvivesGC(t *testing.T) {
	type scratch struct{ buf []byte }
	list := make(FreeList[scratch], 2)
	a, b, c := list.Get(), list.Get(), list.Get()
	if a == nil || a.buf != nil {
		t.Fatalf("empty list: Get = %+v, want a zero object", a)
	}
	a.buf = make([]byte, 8)
	list.Put(a)
	list.Put(b)
	list.Put(c) // full: dropped
	if len(list) != 2 {
		t.Fatalf("list holds %d objects, cap 2", len(list))
	}
	runtime.GC()
	runtime.GC()
	if got := list.Get(); got != a || len(got.buf) != 8 {
		t.Fatalf("after two collections Get = %p, want the first object put (%p)", got, a)
	}
}

func TestSized(t *testing.T) {
	s := Sized([]int(nil), 3)
	if len(s) != 3 {
		t.Fatalf("len %d, want 3", len(s))
	}
	s[2] = 7
	if r := Sized(s, 2); len(r) != 2 || &r[0] != &s[0] {
		t.Fatal("shrinking reallocated")
	}
	if r := Sized(s[:1], 3); &r[0] != &s[0] || r[2] != 7 {
		t.Fatal("growing within capacity reallocated")
	}
	if r := Sized(s, 4); len(r) != 4 || &r[0] == &s[0] {
		t.Fatal("growing past capacity did not reallocate")
	}
}
