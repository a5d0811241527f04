package model

import (
	"testing"

	"carol/internal/rf"
	"carol/internal/safedec"
	"carol/internal/trainset"
	"carol/internal/xrand"
)

// benchArtifact trains a serving-sized forest (100 trees over the
// canonical six-input schema) once per benchmark binary.
func benchArtifact(b *testing.B) *Artifact {
	b.Helper()
	rng := xrand.New(17)
	const rows = 2000
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range X {
		row := make([]float64, trainset.InputDim)
		for j := range row {
			row[j] = rng.Float64()*2 - 1
		}
		X[i] = row
		y[i] = -3 + row[0] - 0.5*row[5] + 0.1*rng.Float64()
	}
	cfg := rf.DefaultConfig()
	cfg.NEstimators = 100
	f, err := rf.Train(X, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return &Artifact{Codec: "sz3", Schema: CanonicalSchema(), Regressor: f,
		Meta: map[string]string{"samples": "2000"}}
}

// BenchmarkArtifactRead measures the warm-load path carolserve pays at
// boot and on every SIGHUP: parse + validate + CRC over a 100-tree model.
func BenchmarkArtifactRead(b *testing.B) {
	buf, err := benchArtifact(b).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadLimited(buf, safedec.Default()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArtifactPredictBatch measures the serving hot path: a 512-row
// ratio sweep through a loaded forest (feature extraction excluded — that
// is features' own benchmark).
func BenchmarkArtifactPredictBatch(b *testing.B) {
	buf, err := benchArtifact(b).Encode()
	if err != nil {
		b.Fatal(err)
	}
	a, err := Read(buf)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(29)
	rows := make([][]float64, 512)
	for i := range rows {
		row := make([]float64, trainset.InputDim)
		for j := range row {
			row[j] = rng.Float64()*2 - 1
		}
		rows[i] = row
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Regressor.PredictBatch(rows); err != nil {
			b.Fatal(err)
		}
	}
}
