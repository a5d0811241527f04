package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTwoPartDimsIsOnePlane: -dims 32x32 means 32×32×1, as field.ParseDims
// reads it at every other front door, not 32×32 × the dataset's default Nz.
func TestTwoPartDimsIsOnePlane(t *testing.T) {
	out := filepath.Join(t.TempDir(), "d.f32")
	var stdout bytes.Buffer
	if err := run([]string{"-dataset", "miranda", "-field", "density", "-dims", "32x32", "-out", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "miranda/density 32x32x1 ") {
		t.Fatalf("carolgen said %q, want a 32x32x1 field", stdout.String())
	}
	if st, err := os.Stat(out); err != nil || st.Size() != 4*32*32 {
		t.Fatalf("wrote %v bytes (%v), want %d", st.Size(), err, 4*32*32)
	}
}

// TestBadDims: malformed dims and a grid past dataset.MaxSamples are errors,
// not a crash, and nothing is written.
func TestBadDims(t *testing.T) {
	for _, dims := range []string{"32xx32", "0x4x4", "4x4x4x4", "-1", "100000x100000x100000"} {
		out := filepath.Join(t.TempDir(), "d.f32")
		err := run([]string{"-dataset", "miranda", "-field", "density", "-dims", dims, "-out", out}, &bytes.Buffer{})
		if err == nil {
			t.Fatalf("-dims %s accepted", dims)
		}
		if _, statErr := os.Stat(out); statErr == nil {
			t.Fatalf("-dims %s: %s written despite %v", dims, out, err)
		}
	}
}

// TestBadStep: a step the dataset does not have is an error, and nothing is
// written (NYX has steps 0..7; Miranda has only step 0).
func TestBadStep(t *testing.T) {
	for _, c := range []struct{ dataset, field, step string }{
		{"nyx", "temperature", "500"},
		{"nyx", "temperature", "-3"},
		{"miranda", "density", "7"},
	} {
		out := filepath.Join(t.TempDir(), "d.f32")
		err := run([]string{"-dataset", c.dataset, "-field", c.field, "-dims", "8x8x8", "-step", c.step, "-out", out}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "time step "+c.step) {
			t.Fatalf("%s -step %s: error %v, want one naming the step", c.dataset, c.step, err)
		}
		if _, statErr := os.Stat(out); statErr == nil {
			t.Fatalf("%s -step %s: %s written despite %v", c.dataset, c.step, out, err)
		}
	}
}
