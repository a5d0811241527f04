package main

import (
	"bytes"
	"testing"

	"carol"
	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/selector"
)

// TestSniffCodecRoundTrip compresses a field with every registered codec
// and verifies decodeAny("auto", ...) identifies each stream from its
// magic byte and restores the field within bound.
func TestSniffCodecRoundTrip(t *testing.T) {
	f := field.New("sniff", 24, 8, 2)
	for i := range f.Data {
		f.Data[i] = float32(i%53) + 0.25
	}
	const rel = 1e-3
	for _, name := range codecs.ExtendedNames {
		blob, err := carol.Compress(name, f, rel)
		if err != nil {
			t.Fatalf("%s compress: %v", name, err)
		}
		sniffed, err := codecs.Sniff(blob[0])
		if err != nil {
			t.Fatalf("%s: sniff: %v", name, err)
		}
		if sniffed != name {
			t.Fatalf("Sniff(0x%02X) = %q, want %q", blob[0], sniffed, name)
		}
		g, err := decodeAny("auto", bytes.NewReader(blob), 0)
		if err != nil {
			t.Fatalf("%s: decodeAny auto: %v", name, err)
		}
		if err := compressor.CheckBound(f, g, compressor.AbsBound(f, rel)); err != nil {
			t.Fatalf("%s: auto round trip out of bound: %v", name, err)
		}
	}
	if _, err := decodeAny("auto", bytes.NewReader([]byte{0x00, 1, 2, 3}), 0); err == nil {
		t.Fatal("decodeAny(auto) accepted an unknown magic byte")
	}
}

// TestDecodeAnyAutoRejectsCPL1: pipeline containers carry no codec name,
// so sniffing must fail loudly instead of guessing.
func TestDecodeAnyAutoRejectsCPL1(t *testing.T) {
	f := field.New("cpl", 64, 4, 1)
	for i := range f.Data {
		f.Data[i] = float32(i % 31)
	}
	var buf bytes.Buffer
	if err := carol.CompressStream("sz3", &buf, f, 1e-3, carol.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeAny("auto", &buf, 0); err == nil {
		t.Fatal("decodeAny(auto) accepted a CPL1 container")
	}
}

// TestAutoCompressChoosesRegistered: the auto path picks a registered
// codec deterministically under a fixed seed.
func TestAutoCompressChoosesRegistered(t *testing.T) {
	f := field.New("auto", 32, 8, 2)
	for i := range f.Data {
		f.Data[i] = float32(i%97) + 0.5
	}
	abs := compressor.AbsBound(f, 1e-3)
	sel, err := selector.New(selector.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sel.Select(f, abs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var known bool
	for _, n := range codecs.ExtendedNames {
		if n == first.Codec {
			known = true
		}
	}
	if !known {
		t.Fatalf("auto chose unregistered codec %q", first.Codec)
	}
	sel2, err := selector.New(selector.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	again, err := sel2.Select(f, abs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Codec != first.Codec {
		t.Fatalf("same seed chose %q then %q", first.Codec, again.Codec)
	}
}
