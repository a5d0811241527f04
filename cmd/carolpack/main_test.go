package main

import (
	"strings"
	"testing"
)

func TestParseFieldSpec(t *testing.T) {
	name, codec, rel, nx, ny, nz, path, err := parseFieldSpec("rho:sz3:1e-3:64x32x16:/tmp/rho.f32")
	if err != nil {
		t.Fatal(err)
	}
	if name != "rho" || codec != "sz3" || rel != 1e-3 || nx != 64 || ny != 32 || nz != 16 || path != "/tmp/rho.f32" {
		t.Fatalf("parsed %v %v %v %v %v %v %v", name, codec, rel, nx, ny, nz, path)
	}
	// Path containing colons (the path is the 5th field, greedy).
	_, _, _, _, _, _, path, err = parseFieldSpec("a:szx:0.01:8:C:/data/a.f32")
	if err != nil || path != "C:/data/a.f32" {
		t.Fatalf("colon path: %q, %v", path, err)
	}
	for _, bad := range []string{
		"", "a:b", "a:szx:zero:8:p", "a:szx:-1:8:p", "a:szx:0.1:0:p", "a:szx:0.1:1x2x3x4:p",
	} {
		if _, _, _, _, _, _, _, err := parseFieldSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestParseFlagRanges: a negative -workers is refused before any work
// instead of packing on every core.
func TestParseFlagRanges(t *testing.T) {
	for _, c := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-pack", "-workers", "-3"}, false},
		{[]string{"-pack", "-stream", "-workers", "-1"}, false},
		{[]string{"-pack", "-stream", "-workers", "0"}, true},
		{[]string{"-pack", "-stream", "-workers", "2"}, true},
		{[]string{"-list", "-in", "snap.car"}, true},
	} {
		_, err := parseFlags(c.args)
		if (err == nil) != c.ok {
			t.Errorf("%v: error %v, want ok=%v", c.args, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "-workers") {
			t.Errorf("%v: error %q does not name -workers", c.args, err)
		}
	}
	o, err := parseFlags([]string{"-pack", "-field", "a:szx:1e-3:8x8x1:a.f32", "-field", "b:sz3:1e-3:8x8x1:b.f32"})
	if err != nil || len(o.fields) != 2 {
		t.Fatalf("repeated -field: %v, %v", o.fields, err)
	}
}
