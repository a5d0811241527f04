package codecs

import (
	"math"
	"slices"
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

// TestRegistryRows holds every row of the codec table to the codec it
// names: its stream's magic, its surrogate and its search surrogate, and
// the order and groupings the rest of the tree relies on.
func TestRegistryRows(t *testing.T) {
	f := field.New("rows", 16, 8, 4)
	for i := range f.Data {
		f.Data[i] = float32(i%37) * 0.5
	}
	for _, r := range registry {
		c, err := ByName(r.name)
		if err != nil || c.Name() != r.name {
			t.Fatalf("ByName(%s) = %v, %v", r.name, c, err)
		}
		stream, err := c.Compress(f, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if m, err := Magic(r.name); err != nil || stream[0] != m {
			t.Fatalf("%s: stream starts 0x%02X, Magic = 0x%02X, %v", r.name, stream[0], m, err)
		}
		if got, err := Sniff(stream[0]); err != nil || got != r.name {
			t.Fatalf("Sniff(0x%02X) = %q, %v; want %q", stream[0], got, err, r.name)
		}
		s, err := SurrogateByName(r.name)
		if err != nil || s.Name() != r.name {
			t.Fatalf("SurrogateByName(%s) = %v, %v", r.name, s, err)
		}
		if again, _ := SurrogateByName(r.name); again != s {
			t.Fatalf("SurrogateByName(%s) built a new estimator", r.name)
		}
		if r.search != nil && r.search.Name() != r.name {
			t.Fatalf("%s: search surrogate named %s", r.name, r.search.Name())
		}
		wantSearch := r.name == "szx" || r.name == "zfp" || r.name == "sz3"
		if got := SearchSurrogate(r.name, f) != nil; got != wantSearch {
			t.Fatalf("%s: search surrogate %v, want %v", r.name, got, wantSearch)
		}
		if rank, err := RankingSurrogate(r.name); err != nil || (r.search != nil && rank != r.search) || (r.search == nil && rank != s) {
			t.Fatalf("RankingSurrogate(%s) = %v, %v; want the search surrogate, else the default", r.name, rank, err)
		}
		if got, want := HighThroughput(r.name), r.name == "szx" || r.name == "zfp"; got != want {
			t.Fatalf("HighThroughput(%s) = %v", r.name, got)
		}
	}
	// bench/ reads both lists, and mode=auto breaks ties in their order.
	if want := []string{"szx", "zfp", "sz3", "sperr"}; !slices.Equal(Names, want) {
		t.Fatalf("Names = %v, want %v", Names, want)
	}
	if want := append(slices.Clone(Names), "szp"); !slices.Equal(ExtendedNames, want) {
		t.Fatalf("ExtendedNames = %v, want %v", ExtendedNames, want)
	}
	order := []string{"szx", "szp", "zfp", "sz3", "sperr", "unknown"}
	for i := 1; i < len(order); i++ {
		if Cost(order[i-1]) >= Cost(order[i]) {
			t.Fatalf("Cost(%s) = %d, not below Cost(%s) = %d",
				order[i-1], Cost(order[i-1]), order[i], Cost(order[i]))
		}
	}
	if _, err := Magic("lzma"); err == nil {
		t.Fatal("Magic of an unknown codec")
	}
	if _, err := Sniff(0x00); err == nil {
		t.Fatal("Sniff accepted an unknown magic byte")
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
