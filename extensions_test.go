package carol

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carol/internal/fuzzseed"
	"carol/internal/trainset"
)

func TestSaveLoadCheckpoint(t *testing.T) {
	fw, err := New("szx", Config{
		ErrorBounds:  trainset.GeometricBounds(1e-3, 1e-1, 6),
		BOIterations: 4,
		ForestCap:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, "density")
	if _, err := fw.Collect([]*Field{f}); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(); err != nil {
		t.Fatal(err)
	}
	ckpt := fw.Checkpoint()
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, ckpt); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(ckpt) {
		t.Fatalf("loaded %d observations, want %d", len(loaded), len(ckpt))
	}
	for i := range ckpt {
		if loaded[i].Score != ckpt[i].Score || len(loaded[i].U) != len(ckpt[i].U) {
			t.Fatalf("observation %d corrupted by round trip", i)
		}
	}
	// The loaded checkpoint must be restorable into a fresh framework.
	fresh, err := New("szx", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreCheckpoint(loaded); err != nil {
		t.Fatal(err)
	}
}

func TestLoadCheckpointRejectsGarbage(t *testing.T) {
	if _, err := LoadCheckpoint(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

func TestIterativeCompressToRatio(t *testing.T) {
	f := testField(t, "viscosity")
	// Pick an achievable target.
	probe, err := Compress("sz3", f, 3e-3)
	if err != nil {
		t.Fatal(err)
	}
	target := Ratio(f, probe)
	res, err := IterativeCompressToRatio("sz3", f, target)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: achieved %g for %g", res.Achieved, target)
	}
	if res.CompressorRuns < 2 {
		t.Fatalf("suspicious run count %d", res.CompressorRuns)
	}
	if _, err := Decompress("sz3", res.Stream); err != nil {
		t.Fatal(err)
	}
	if _, err := IterativeCompressToRatio("nope", f, 10); err == nil {
		t.Fatal("unknown compressor accepted")
	}
	// SZx searches on its surrogate first: a reachable target is one run.
	if probe, err = Compress("szx", f, 3e-3); err != nil {
		t.Fatal(err)
	}
	res, err = IterativeCompressToRatio("szx", f, Ratio(f, probe))
	if err != nil || !res.Converged || res.CompressorRuns != 1 {
		t.Fatalf("szx: %d runs, converged %v, achieved %g for %g (%v)", res.CompressorRuns, res.Converged, res.Achieved, Ratio(f, probe), err)
	}
	if _, err := Decompress("szx", res.Stream); err != nil {
		t.Fatal(err)
	}
}

// TestDecompressReadsCPL1: the CPL1 container CompressStream writes
// decodes through Decompress as through DecompressStream, within the bound.
func TestDecompressReadsCPL1(t *testing.T) {
	f := testField(t, "pressure")
	for _, name := range []string{"szx", "szp"} {
		var stream bytes.Buffer
		if err := CompressStream(name, &stream, f, 1e-3, StreamOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := string(stream.Bytes()[:4]); got != "CPL1" {
			t.Fatalf("%s: container magic %q, want CPL1", name, got)
		}
		g, err := Decompress(name, stream.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eb := 1e-3 * f.ValueRange()
		if got := MaxAbsError(f, g); got > eb*1.01 {
			t.Fatalf("%s: container max error %g > %g", name, got, eb)
		}
		h, err := DecompressStream(name, &stream, StreamOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if MaxAbsError(g, h) != 0 {
			t.Fatalf("%s: Decompress and DecompressStream disagree", name)
		}
	}
	var sink bytes.Buffer
	if err := CompressStream("szx", &sink, f, 0, StreamOptions{}); err == nil {
		t.Fatal("zero bound accepted")
	}
	if err := CompressStream("nope", &sink, f, 1e-3, StreamOptions{}); err == nil {
		t.Fatal("unknown compressor accepted")
	}
}

// TestDecompressReadsLegacyCCH1: the CCH1 containers the chunked writer
// left (internal/pipeline/testdata/cch1_digests.txt) decode through
// Decompress and DecompressStream to the field bits they decoded to then,
// or are refused by both.
func TestDecompressReadsLegacyCCH1(t *testing.T) {
	const dir = "internal/pipeline/testdata"
	list, err := os.ReadFile(filepath.Join(dir, "cch1_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(list), "\n") {
		fs := strings.Fields(line)
		if len(fs) != 3 || strings.HasPrefix(fs[0], "#") {
			continue
		}
		stream, err := fuzzseed.Read(filepath.Join(dir, "fuzz/FuzzFrames", fs[0]))
		if err != nil {
			t.Fatal(err)
		}
		mem, memErr := Decompress(fs[1], stream)
		streamed, streamErr := DecompressStream(fs[1], bytes.NewReader(stream), StreamOptions{})
		for dec, got := range map[string]string{
			"Decompress":       rawDigest(t, mem, memErr),
			"DecompressStream": rawDigest(t, streamed, streamErr),
		} {
			if got != fs[2] {
				t.Errorf("%s: %s decodes to %s, want %s", fs[0], dec, got, fs[2])
			}
		}
		n++
	}
	if n != 10 {
		t.Fatalf("%d legacy containers, want 10", n)
	}
}

// rawDigest is the sha256 of f's raw samples, or "-" for a refused decode.
func rawDigest(t *testing.T, f *Field, err error) string {
	t.Helper()
	if err != nil {
		return "-"
	}
	var buf bytes.Buffer
	if err := f.WriteRaw(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

func TestStreamRoundTrip(t *testing.T) {
	f := testField(t, "pressure")
	for _, name := range []string{"szx", "sz3"} {
		var serial, parallel bytes.Buffer
		if err := CompressStream(name, &serial, f, 1e-3, StreamOptions{Workers: 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := CompressStream(name, &parallel, f, 1e-3, StreamOptions{Workers: 4}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
			t.Fatalf("%s: stream bytes differ between 1 and 4 workers", name)
		}
		g, err := DecompressStream(name, &parallel, StreamOptions{Workers: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eb := 1e-3 * f.ValueRange()
		if got := MaxAbsError(f, g); got > eb*1.01 {
			t.Fatalf("%s: streaming max error %g > %g", name, got, eb)
		}
	}
	if err := CompressStream("szx", &bytes.Buffer{}, f, 0, StreamOptions{}); err == nil {
		t.Fatal("zero bound accepted")
	}
	if err := CompressStream("nope", &bytes.Buffer{}, f, 1e-3, StreamOptions{}); err == nil {
		t.Fatal("unknown compressor accepted")
	}
	if _, err := DecompressStream("szx", strings.NewReader("garbage"), StreamOptions{}); err == nil {
		t.Fatal("garbage stream accepted")
	}
}

func TestExtendedCompressors(t *testing.T) {
	ext := ExtendedCompressors()
	if len(ext) != 5 || ext[4] != "szp" {
		t.Fatalf("ExtendedCompressors = %v", ext)
	}
	// The extension codec must work through the plain API too.
	f := testField(t, "density")
	stream, err := Compress("szp", f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress("szp", stream)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsError(f, g) > 1e-3*f.ValueRange()*1.01 {
		t.Fatal("szp bound violated via public API")
	}
}

func TestPointwiseRelAPI(t *testing.T) {
	f := testField(t, "density")
	// Inject dynamic range so the mode matters.
	for i := range f.Data {
		if i%7 == 0 {
			f.Data[i] *= 1e4
		}
		if i%11 == 0 {
			f.Data[i] = 0
		}
	}
	stream, err := CompressPointwiseRel("sz3", f, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecompressPointwiseRel("sz3", stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		a, b := float64(f.Data[i]), float64(g.Data[i])
		if a == 0 {
			if b != 0 {
				t.Fatalf("zero at %d -> %g", i, b)
			}
			continue
		}
		if rel := abs64(b-a) / abs64(a); rel > 1.05e-2 {
			t.Fatalf("sample %d rel err %g", i, rel)
		}
	}
	if _, err := CompressPointwiseRel("nope", f, 1e-2); err == nil {
		t.Fatal("unknown compressor accepted")
	}
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestFrameworkWithExtensionCodec(t *testing.T) {
	// CAROL end-to-end on szp: surrogate exists, so New should work.
	fw, err := New("szp", Config{
		ErrorBounds:  trainset.GeometricBounds(1e-3, 1e-1, 6),
		BOIterations: 4,
		ForestCap:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var train []*Field
	for _, n := range []string{"density", "pressure"} {
		train = append(train, testField(t, n))
	}
	if _, err := fw.Collect(train); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(); err != nil {
		t.Fatal(err)
	}
	f := testField(t, "viscosity")
	_, achieved, err := fw.CompressToRatio(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	if achieved <= 0 {
		t.Fatal("degenerate prediction")
	}
}
