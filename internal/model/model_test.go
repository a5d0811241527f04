package model

import (
	"bytes"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"carol/internal/features"
	"carol/internal/rf"
	"carol/internal/safedec"
	"carol/internal/safedec/safedectest"
	"carol/internal/trainset"
	"carol/internal/xrand"
)

func featuresOpts() features.ParallelOptions { return features.ParallelOptions{} }

func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// testArtifact trains a small forest over the canonical serving schema and
// wraps it with calibration state and metadata, exercising every section
// of the format.
func testArtifact(t testing.TB) *Artifact {
	t.Helper()
	rng := xrand.New(11)
	const rows = 300
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range X {
		row := make([]float64, trainset.InputDim)
		for j := range row {
			row[j] = rng.Float64()*2 - 1
		}
		X[i] = row
		y[i] = -3 + row[0] + 0.5*row[5]
	}
	cfg := rf.DefaultConfig()
	cfg.NEstimators = 8
	cfg.MaxDepth = 6
	forest, err := rf.Train(X, y, cfg)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return &Artifact{
		Codec:  "sz3",
		Schema: CanonicalSchema(),
		Calib: &CalibState{
			EBs:  []float64{1e-4, 1e-3, 1e-2, 1e-1},
			Rho:  []float64{0.12, 0.08, -0.02, -0.05},
			Over: true,
		},
		Regressor: forest,
		Meta: map[string]string{
			"samples":    "300",
			"best_score": "0.0123",
			"trained_at": "2026-08-05T00:00:00Z",
		},
	}
}

func mustEncode(t testing.TB, a *Artifact) []byte {
	t.Helper()
	buf, err := a.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf
}

func TestEncodeDeterministic(t *testing.T) {
	a := testArtifact(t)
	first := mustEncode(t, a)
	for i := 0; i < 8; i++ {
		if !bytes.Equal(first, mustEncode(t, a)) {
			t.Fatalf("encode %d differs from first encode", i)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	a := testArtifact(t)
	buf := mustEncode(t, a)
	b, err := Read(buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if b.Codec != a.Codec {
		t.Fatalf("codec %q != %q", b.Codec, a.Codec)
	}
	if !schemaMatches(a.Schema, b.Schema) {
		t.Fatalf("schema %v != %v", b.Schema, a.Schema)
	}
	if b.Calib == nil || !b.Calib.Over ||
		len(b.Calib.EBs) != len(a.Calib.EBs) {
		t.Fatalf("calibration state lost: %+v", b.Calib)
	}
	for i := range a.Calib.EBs {
		if math.Float64bits(a.Calib.EBs[i]) != math.Float64bits(b.Calib.EBs[i]) ||
			math.Float64bits(a.Calib.Rho[i]) != math.Float64bits(b.Calib.Rho[i]) {
			t.Fatalf("calibration point %d not bit-identical", i)
		}
	}
	if len(b.Meta) != len(a.Meta) {
		t.Fatalf("meta %v != %v", b.Meta, a.Meta)
	}
	for k, v := range a.Meta {
		if b.Meta[k] != v {
			t.Fatalf("meta[%q] = %q, want %q", k, b.Meta[k], v)
		}
	}
	// The decoded forest drops the machine-local Workers knob...
	before, after := a.Regressor.(*rf.Forest).Config(), b.Regressor.(*rf.Forest).Config()
	if after.Workers != 0 {
		t.Fatalf("decoded forest Workers = %d, want 0", after.Workers)
	}
	// ...but keeps every model-identity hyper-parameter. (Predictions and
	// the byte-identical re-encode are TestBackendConformance's.)
	before.Workers = 0
	if before != after {
		t.Fatalf("config %+v != %+v", after, before)
	}
}

func TestRoundTripMinimal(t *testing.T) {
	a := testArtifact(t)
	a.Calib = nil
	a.Meta = nil
	buf := mustEncode(t, a)
	b, err := Read(buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if b.Calib != nil || len(b.Meta) != 0 {
		t.Fatalf("minimal artifact grew sections: calib=%v meta=%v", b.Calib, b.Meta)
	}
	if !bytes.Equal(buf, mustEncode(t, b)) {
		t.Fatal("minimal re-encode differs")
	}
}

// TestPredictHelpersReject covers the refusals of the serving helpers;
// their answers are checked per backend by TestBackendConformance.
func TestPredictHelpersReject(t *testing.T) {
	a := testArtifact(t)
	f := testField(t)
	if _, err := a.PredictErrorBound(f, -1, featuresOpts()); err == nil {
		t.Fatal("negative ratio accepted")
	}
	if _, err := a.PredictErrorBounds(f, nil, featuresOpts()); err == nil {
		t.Fatal("empty ratio list accepted")
	}
	// A foreign schema must be refused before any prediction happens.
	b := testArtifact(t)
	b.Schema = append([]string{"alien"}, b.Schema[1:]...)
	if _, err := b.PredictErrorBound(f, 10, featuresOpts()); err == nil {
		t.Fatal("foreign schema served")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Artifact)
	}{
		{"empty codec", func(a *Artifact) { a.Codec = "" }},
		{"empty schema", func(a *Artifact) { a.Schema = nil }},
		{"blank schema entry", func(a *Artifact) { a.Schema[2] = "" }},
		{"nil regressor", func(a *Artifact) { a.Regressor = nil }},
		{"dims mismatch", func(a *Artifact) { a.Schema = a.Schema[:3] }},
		{"bad calibration", func(a *Artifact) { a.Calib.EBs[1] = a.Calib.EBs[0] }},
		{"empty meta key", func(a *Artifact) { a.Meta[""] = "x" }},
		{"oversized meta value", func(a *Artifact) { a.Meta["k"] = strings.Repeat("x", maxStringLen+1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := testArtifact(t)
			c.mutate(a)
			if _, err := a.Encode(); err == nil {
				t.Fatal("invalid artifact encoded")
			}
		})
	}
}

// TestReadHostileStreams feeds structurally broken streams and checks
// every one is rejected with the right safedec class — and none panics.
func TestReadHostileStreams(t *testing.T) {
	valid := mustEncode(t, testArtifact(t))
	corruptAt := func(off int) []byte {
		b := append([]byte(nil), valid...)
		b[off] ^= 0xff
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, safedec.ErrTruncated},
		{"magic only", []byte(Magic), safedec.ErrTruncated},
		{"bad magic", corruptAt(0), safedec.ErrCorrupt},
		{"future version", corruptAt(9), safedec.ErrCorrupt},
		{"flipped codec byte", corruptAt(13), safedec.ErrCorrupt},
		{"flipped mid-forest byte", corruptAt(len(valid) / 2), safedec.ErrCorrupt},
		{"flipped checksum", corruptAt(len(valid) - 1), safedec.ErrCorrupt},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xAA), safedec.ErrCorrupt},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := Read(c.data)
			if err == nil {
				t.Fatalf("hostile stream accepted: %+v", a)
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("error %v, want class %v", err, c.want)
			}
			if safedec.Classify(err) == "" {
				t.Fatalf("unclassified error %v", err)
			}
		})
	}
}

// TestSectionCountLimits: each structural count is charged to MaxCount on
// its own, so the forest's trees and the calibration table are each refused
// by a cap the other section fits under.
func TestSectionCountLimits(t *testing.T) {
	a := testArtifact(t) // 8 trees
	a.Calib = nil
	trees := mustEncode(t, a)
	safedectest.Rejects(t, 0, func() error {
		_, err := ReadLimited(trees, safedec.Limits{MaxCount: 4})
		return err
	})
	a.Calib = &CalibState{EBs: make([]float64, 16), Rho: make([]float64, 16)}
	for i := range a.Calib.EBs {
		a.Calib.EBs[i] = math.Ldexp(1, i-20)
	}
	calib := mustEncode(t, a)
	if _, err := ReadLimited(calib, safedec.Limits{MaxCount: 16}); err != nil {
		t.Fatalf("16 calibration points under MaxCount 16: %v", err)
	}
	safedectest.Rejects(t, 0, func() error {
		_, err := ReadLimited(calib, safedec.Limits{MaxCount: 8})
		return err
	})
}

func TestWriteReadFile(t *testing.T) {
	a := testArtifact(t)
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/m.model"
	if err := writeFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	b, err := ReadFile(path, safedec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Codec != a.Codec {
		t.Fatalf("codec %q", b.Codec)
	}
	if _, err := ReadFile(path+".missing", safedec.Limits{}); err == nil {
		t.Fatal("missing file read")
	}
}
