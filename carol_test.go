package carol

import (
	"testing"

	"carol/internal/dataset"
	"carol/internal/trainset"
)

func testField(t *testing.T, name string) *Field {
	t.Helper()
	f, err := dataset.Generate("miranda", name, dataset.Options{Nx: 32, Ny: 32, Nz: 16})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCompressors(t *testing.T) {
	names := Compressors()
	if len(names) != 4 {
		t.Fatalf("Compressors() = %v", names)
	}
	for _, n := range names {
		c, err := Lookup(n)
		if err != nil || c.Name() != n {
			t.Fatalf("Lookup(%q) = %v, %v", n, c, err)
		}
		s, err := Surrogate(n)
		if err != nil || s.Name() != n {
			t.Fatalf("Surrogate(%q) = %v, %v", n, s, err)
		}
	}
	if _, err := Lookup("bzip2"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	f := testField(t, "density")
	for _, name := range Compressors() {
		stream, err := Compress(name, f, 1e-3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := Decompress(name, stream)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eb := 1e-3 * f.ValueRange()
		if got := MaxAbsError(f, g); got > eb*1.01 {
			t.Fatalf("%s: max error %g > bound %g", name, got, eb)
		}
		if Ratio(f, stream) <= 1 {
			t.Fatalf("%s: no compression", name)
		}
		if PSNR(f, g) < 30 {
			t.Fatalf("%s: PSNR %g dB", name, PSNR(f, g))
		}
	}
}

func TestCompressValidation(t *testing.T) {
	f := testField(t, "density")
	if _, err := Compress("szx", f, 0); err == nil {
		t.Fatal("zero bound accepted")
	}
	if _, err := Compress("nope", f, 1e-3); err == nil {
		t.Fatal("unknown compressor accepted")
	}
	if _, err := Decompress("nope", nil); err == nil {
		t.Fatal("unknown compressor accepted for decompress")
	}
}

func TestEndToEndFixedRatio(t *testing.T) {
	fw, err := New("szx", Config{
		ErrorBounds:  trainset.GeometricBounds(1e-4, 1e-1, 10),
		BOIterations: 5,
		ForestCap:    10,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	train := []*Field{testField(t, "density"), testField(t, "pressure"), testField(t, "viscosity")}
	if _, err := fw.Collect(train); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(); err != nil {
		t.Fatal(err)
	}
	test := testField(t, "velocityx")
	// Request a ratio SZx can plausibly hit on this data.
	probe, err := Compress("szx", test, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	target := Ratio(test, probe)
	stream, achieved, err := fw.CompressToRatio(test, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) == 0 || achieved <= 0 {
		t.Fatal("empty result")
	}
	relErr := achieved/target - 1
	if relErr < -0.6 || relErr > 0.6 {
		t.Fatalf("achieved %g for target %g", achieved, target)
	}
	// The stream must decompress with the same codec.
	if _, err := Decompress("szx", stream); err != nil {
		t.Fatal(err)
	}
}

func TestFieldHelpers(t *testing.T) {
	f := NewField("x", 4, 2, 1)
	if f.Len() != 8 {
		t.Fatal("NewField broken")
	}
	g := FieldFromData("y", 2, 2, 1, []float32{1, 2, 3, 4})
	if g.At(1, 1, 0) != 4 {
		t.Fatal("FieldFromData broken")
	}
}
