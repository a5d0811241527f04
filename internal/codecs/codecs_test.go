package codecs

import (
	"math"
	"testing"

	"carol/internal/field"
)

func TestByNameAll(t *testing.T) {
	for _, name := range Names {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("codec %s reports name %s", name, c.Name())
		}
		s, err := SurrogateByName(name)
		if err != nil {
			t.Fatalf("%s surrogate: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("surrogate %s reports name %s", name, s.Name())
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("lzma"); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if _, err := SurrogateByName("lzma"); err == nil {
		t.Fatal("unknown surrogate accepted")
	}
}

func TestHighThroughputGrouping(t *testing.T) {
	groups := map[string]bool{"szx": true, "zfp": true, "sz3": false, "sperr": false}
	for name, want := range groups {
		if got := HighThroughput(name); got != want {
			t.Errorf("HighThroughput(%s) = %v, want %v", name, got, want)
		}
	}
}

// TestSearchSurrogate: SZx, ZFP and SZ3 get a field-bound surrogate, whose
// SZx estimate is the exact payload size on a field small enough to sample
// whole; SPERR, SZP, unknown codecs and unusable fields get none.
func TestSearchSurrogate(t *testing.T) {
	f := field.New("ramp", 32, 32, 8)
	for i := range f.Data {
		f.Data[i] = float32(i%97) * 0.25
	}
	for _, name := range ExtendedNames {
		sur := SearchSurrogate(name, f)
		if want := name != "sperr" && name != "szp"; (sur != nil) != want {
			t.Fatalf("%s: search surrogate %v", name, sur != nil)
		}
	}
	nan := field.FromData("nan", 32, 32, 8, append([]float32(nil), f.Data...))
	nan.Data[1000] = float32(math.NaN())
	for _, name := range []string{"szx", "zfp", "sz3"} {
		if SearchSurrogate(name, nil) != nil || SearchSurrogate(name, nan) != nil {
			t.Fatalf("%s: surrogate for a nil field or one with a NaN", name)
		}
	}
	if SearchSurrogate("nope", f) != nil {
		t.Fatal("surrogate for an unknown codec")
	}
	codec, err := ByName("szx")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := codec.Compress(f, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	est, err := SearchSurrogate("szx", f)(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// The stream adds its 33-byte header and pads to a byte.
	if payload := float64(f.SizeBytes()) / est; math.Abs(payload-float64(len(stream)-33)) > 1 {
		t.Fatalf("estimated payload %.1f bytes, the stream has %d", payload, len(stream)-33)
	}
}
