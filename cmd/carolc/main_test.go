package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carol"
	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/field"
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

// TestAutoCompressChoosesRegistered: carolc -codec auto writes a stream of
// a registered codec, byte for byte the same on a second run, and on a
// generated 32³ field that codec is the one with the best real ratio.
func TestAutoCompressChoosesRegistered(t *testing.T) {
	f, err := dataset.Generate("hurricane", "U", dataset.Options{Nx: 32, Ny: 32, Nz: 32, TimeStep: 36})
	if err != nil {
		t.Fatal(err)
	}
	const rel = 1e-3
	dir := t.TempDir()
	var blobs [2][]byte
	for i := range blobs {
		out := filepath.Join(dir, fmt.Sprintf("auto%d.carolc", i))
		if err := doCompressAuto(f, rel, out); err != nil {
			t.Fatal(err)
		}
		if blobs[i], err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("two runs of -codec auto wrote different streams")
	}
	chosen, err := codecs.Sniff(blobs[0][0])
	if err != nil {
		t.Fatalf("auto wrote a stream of no registered codec: %v", err)
	}
	best, bestRatio := "", 0.0
	for _, name := range codecs.ExtendedNames {
		blob, err := carol.Compress(name, f, rel)
		if err != nil {
			t.Fatal(err)
		}
		if r := carol.Ratio(f, blob); r > bestRatio {
			best, bestRatio = name, r
		}
	}
	if chosen != best {
		t.Fatalf("auto chose %s (ratio %.2f), best is %s (ratio %.2f)",
			chosen, carol.Ratio(f, blobs[0]), best, bestRatio)
	}
}

// TestCompressToRatioReachesTarget: -ratio resolves the bound by search, so
// SZx at target 40 on a generated 32³ field lands within the 3 % band
// (a forest trained on the field's own [1e-4, 1e-1] sweep stopped near 6.5).
func TestCompressToRatioReachesTarget(t *testing.T) {
	f, err := dataset.Generate("miranda", "viscosity", dataset.Options{Nx: 32, Ny: 32, Nz: 32})
	if err != nil {
		t.Fatal(err)
	}
	const target = 40
	blob, err := compressToRatio("szx", f, target)
	if err != nil {
		t.Fatal(err)
	}
	if got := carol.Ratio(f, blob); math.Abs(got-target) > 0.03*target {
		t.Fatalf("szx -ratio %d achieved %.2f, outside the 3%% band", target, got)
	}
	g, err := decodeAny("szx", bytes.NewReader(blob), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != f.Len() {
		t.Fatalf("decoded %d samples, want %d", g.Len(), f.Len())
	}
}

// TestParseFlagRanges: an out-of-range -workers, -eb or -ratio, or -eb
// and -ratio together, is refused before any work instead of running on
// every core, dropping -eb or reporting a missing bound; the flags the
// smoke scripts pass stay valid.
func TestParseFlagRanges(t *testing.T) {
	for _, c := range []struct {
		args []string
		err  string // "" = accepted
	}{
		{[]string{"-stream", "-workers", "-5", "-eb", "1e-3"}, "-workers -5 < 0"},
		{[]string{"-d", "-workers", "-2"}, "-workers -2 < 0"},
		{[]string{"-stream", "-workers", "0", "-eb", "1e-3"}, ""},
		{[]string{"-d", "-workers", "3"}, ""},
		{[]string{"-eb", "1e-3", "-ratio", "10"}, "-eb 0.001 and -ratio 10"},
		{[]string{"-eb", "-1e-3"}, "-eb -0.001 out of range"},
		{[]string{"-eb", "NaN"}, "-eb NaN out of range"},
		{[]string{"-ratio", "-4"}, "-ratio -4 out of range"},
		{[]string{"-ratio", "0.5"}, "-ratio 0.5 out of range"},
		{[]string{"-ratio", "1"}, "-ratio 1 out of range"},
		{[]string{"-ratio", "+Inf"}, "-ratio +Inf out of range"},
		{[]string{"-ratio", "1.01"}, ""},
		{[]string{"-eb", "1e-3"}, ""},
		{[]string{"-compressor", "szx", "-ratio", "20"}, ""},
		{[]string{"-codec", "auto", "-eb", "1e-3"}, ""},
	} {
		_, err := parseFlags(c.args)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%v: %v", c.args, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%v: error %v, want one containing %q", c.args, err, c.err)
		}
	}
	o, err := parseFlags([]string{"-compressor", "szx", "-codec", "zfp"})
	if err != nil || o.codec != "zfp" {
		t.Fatalf("-codec does not override -compressor: %q, %v", o.codec, err)
	}
}
