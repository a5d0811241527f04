package model

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"testing"

	"carol/internal/boost"
	"carol/internal/field"
	"carol/internal/knn"
	"carol/internal/rf"
	"carol/internal/safedec"
	"carol/internal/safedec/safedectest"
	"carol/internal/trainset"
	"carol/internal/xrand"
)

// testField builds a small non-constant probe field for predict helpers.
func testField(t testing.TB) *field.Field {
	t.Helper()
	f := field.New("probe", 16, 16, 4)
	rng := xrand.New(3)
	for i := range f.Data {
		f.Data[i] = float32(rng.Float64())
	}
	return f
}

// zooTrainingData builds a small canonical-schema training set shared by
// the boost/knn artifact helpers.
func zooTrainingData(t testing.TB, rows int, seed uint64) ([][]float64, []float64) {
	t.Helper()
	rng := xrand.New(seed)
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
	return X, y
}

func boostArtifact(t testing.TB) *Artifact {
	t.Helper()
	X, y := zooTrainingData(t, 200, 21)
	m, err := boost.Train(X, y, boost.Config{Rounds: 10, Depth: 3})
	if err != nil {
		t.Fatalf("boost train: %v", err)
	}
	return &Artifact{
		Codec:     "szx",
		Backend:   BackendBoost,
		Schema:    CanonicalSchema(),
		Regressor: m,
		Meta:      map[string]string{"samples": "200"},
	}
}

func knnArtifact(t testing.TB) *Artifact {
	t.Helper()
	X, y := zooTrainingData(t, 150, 22)
	m, err := knn.Train(X, y, knn.Config{K: 5})
	if err != nil {
		t.Fatalf("knn train: %v", err)
	}
	return &Artifact{
		Codec:     "sperr",
		Backend:   BackendKNN,
		Schema:    CanonicalSchema(),
		Regressor: m,
		Meta:      map[string]string{"samples": "150"},
	}
}

// conformanceFixtures returns one small trained artifact per backend tag.
// TestBackendConformance fails on a table row without one, so adding a
// backend means adding its fixture here — and nothing else in this file.
func conformanceFixtures(t testing.TB) map[string]*Artifact {
	return map[string]*Artifact{
		BackendRF:    testArtifact(t),
		BackendBoost: boostArtifact(t),
		BackendKNN:   knnArtifact(t),
	}
}

func probeRows(n int, seed uint64) [][]float64 {
	rng := xrand.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, trainset.InputDim)
		for j := range row {
			row[j] = rng.Float64()*4 - 2
		}
		rows[i] = row
	}
	return rows
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d predictions, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: row %d: %g != %g", what, i, got[i], want[i])
		}
	}
}

// TestBackendConformance is the contract every row of the backends table
// must meet, checked once by ranging over the table: the wire round trip
// is byte-stable, the Regressor seam behaves (Dims, batch == per-row,
// SetWorkers-invariant), the serving helpers answer, and every broken
// stream is refused under the safedec taxonomy.
func TestBackendConformance(t *testing.T) {
	fixtures := conformanceFixtures(t)
	rows := probeRows(64, 7)
	for _, tag := range KnownBackends() {
		a, ok := fixtures[tag]
		if !ok {
			t.Fatalf("backend %q has no conformance fixture", tag)
		}
		valid := mustEncode(t, a)
		t.Run(tag+"/round trip", func(t *testing.T) {
			b, err := Read(valid)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if b.BackendTag() != tag || b.Stats().Backend != tag {
				t.Fatalf("backend %q / stats %q, want %q", b.BackendTag(), b.Stats().Backend, tag)
			}
			if !bytes.Equal(valid, mustEncode(t, b)) {
				t.Fatal("re-encode differs from original bytes")
			}
			want, err := a.Regressor.PredictBatch(rows)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Regressor.PredictBatch(rows)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "decoded vs original", got, want)
		})
		t.Run(tag+"/regressor seam", func(t *testing.T) {
			r := a.Regressor
			if r.Dims() != trainset.InputDim {
				t.Fatalf("dims %d, want %d", r.Dims(), trainset.InputDim)
			}
			single, ok := r.(interface {
				Predict(x []float64) (float64, error)
			})
			if !ok {
				t.Fatalf("%T has no per-row Predict to compare the batch against", r)
			}
			want := make([]float64, len(rows))
			for i, row := range rows {
				var err error
				if want[i], err = single.Predict(row); err != nil {
					t.Fatal(err)
				}
			}
			for _, workers := range []int{1, 2, 0} {
				r.SetWorkers(workers)
				got, err := r.PredictBatch(rows)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("workers=%d batch vs Predict", workers), got, want)
			}
			if _, err := r.PredictBatch([][]float64{rows[0][:3]}); err == nil {
				t.Fatal("short row accepted")
			}
		})
		t.Run(tag+"/serving helpers", func(t *testing.T) {
			if err := a.ServingCheck(); err != nil {
				t.Fatalf("serving check: %v", err)
			}
			f := testField(t)
			ratios := []float64{2, 10, 100}
			batch, err := a.PredictErrorBounds(f, ratios, featuresOpts())
			if err != nil {
				t.Fatalf("batch predict: %v", err)
			}
			for i, ratio := range ratios {
				eb, err := a.PredictErrorBound(f, ratio, featuresOpts())
				if err != nil {
					t.Fatalf("single predict: %v", err)
				}
				if math.Float64bits(eb) != math.Float64bits(batch[i]) {
					t.Fatalf("ratio %g: single %v != batch %v", ratio, eb, batch[i])
				}
				if !(eb > 0 && eb <= 1) {
					t.Fatalf("ratio %g: bound %v outside (0, 1]", ratio, eb)
				}
			}
		})
		t.Run(tag+"/hostile streams", func(t *testing.T) {
			// Every strict prefix fails classified (mostly ErrTruncated; a
			// cut landing on a self-consistent prefix may read as corrupt).
			for n := 0; n < len(valid); n++ {
				got, err := Read(valid[:n])
				if err == nil {
					t.Fatalf("truncation at %d of %d accepted: %+v", n, len(valid), got)
				}
				if safedec.Classify(err) == "" {
					t.Fatalf("truncation at %d: unclassified error %v", n, err)
				}
			}
			// A byte flip either breaks the structure or the CRC.
			for _, off := range []int{12, 20, len(valid) / 3, len(valid) / 2, len(valid) - 2} {
				b := append([]byte(nil), valid...)
				b[off] ^= 0xff
				if got, err := Read(b); err == nil {
					t.Fatalf("flip at %d accepted: %+v", off, got)
				} else if safedec.Classify(err) == "" {
					t.Fatalf("flip at %d unclassified: %v", off, err)
				}
			}
			// The payload's claimed sizes are charged to the caller's budget.
			safedectest.Rejects(t, 128, func() error {
				_, err := ReadLimited(valid, safedec.Limits{MaxAlloc: 128})
				return err
			})
			safedectest.Rejects(t, 0, func() error {
				_, err := ReadLimited(valid, safedec.Limits{MaxCount: 2})
				return err
			})
			if _, err := ReadLimited(valid, safedec.Default()); err != nil {
				t.Fatalf("generous limits: %v", err)
			}
		})
	}
}

func TestBackendStats(t *testing.T) {
	if s := boostArtifact(t).Stats(); s.Trees != 10 || s.Nodes == 0 || s.MaxDepth == 0 {
		t.Fatalf("boost stats %+v", s)
	}
	if s := knnArtifact(t).Stats(); s.Samples != 150 || s.K != 5 {
		t.Fatalf("knn stats %+v", s)
	}
	if s := testArtifact(t).Stats(); s.Trees != 8 || s.Nodes == 0 {
		t.Fatalf("rf stats %+v", s)
	}
}

// TestValidateBackendPairing pins what the single Regressor field still
// lets a caller get wrong: no regressor at all, a regressor of another
// backend's type, or a tag outside the table.
func TestValidateBackendPairing(t *testing.T) {
	fixtures := conformanceFixtures(t)
	type pairing struct {
		name string
		a    *Artifact
	}
	cases := []pairing{
		{"unknown tag", &Artifact{Codec: "szx", Backend: "svm", Schema: CanonicalSchema(), Regressor: fixtures[BackendRF].Regressor}},
	}
	for _, tag := range KnownBackends() {
		cases = append(cases, pairing{tag + " tag without regressor",
			&Artifact{Codec: "szx", Backend: tag, Schema: CanonicalSchema()}})
		for _, other := range KnownBackends() {
			if other != tag {
				cases = append(cases, pairing{tag + " tag with " + other + " regressor",
					&Artifact{Codec: "szx", Backend: tag, Schema: CanonicalSchema(), Regressor: fixtures[other].Regressor}})
			}
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.a.Validate(); err == nil {
				t.Fatal("accepted")
			}
		})
	}
	// Empty backend normalizes to rf and stays valid + encodable.
	legacy := testArtifact(t)
	legacy.Backend = ""
	if err := legacy.Validate(); err != nil {
		t.Fatalf("empty-backend artifact rejected: %v", err)
	}
	buf := mustEncode(t, legacy)
	b, err := Read(buf)
	if err != nil || b.BackendTag() != BackendRF {
		t.Fatalf("empty-backend round trip: %v, tag %q", err, b.BackendTag())
	}
}

// encodeV1 hand-writes the legacy version-1 layout (no backend tag,
// RF-only) so the compat path is tested against real old bytes, not
// against whatever the current encoder happens to produce.
func encodeV1(t testing.TB, a *Artifact) []byte {
	t.Helper()
	w := &writer{}
	w.buf = append(w.buf, Magic...)
	w.u32(1)
	w.str(a.Codec)
	w.uvarint(uint64(len(a.Schema)))
	for _, s := range a.Schema {
		w.str(s)
	}
	if a.Calib == nil {
		w.uvarint(0)
	} else {
		w.uvarint(uint64(len(a.Calib.EBs)))
		if a.Calib.Over {
			w.u8(1)
		} else {
			w.u8(0)
		}
		for i := range a.Calib.EBs {
			w.f64(a.Calib.EBs[i])
			w.f64(a.Calib.Rho[i])
		}
	}
	writeForest(w, a.Regressor.(*rf.Forest).Flatten())
	keys := make([]string, 0, len(a.Meta))
	for k := range a.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.str(a.Meta[k])
	}
	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

// TestReadVersion1Compat proves pre-zoo artifacts still load: a
// hand-encoded v1 stream parses as an rf-backend artifact predicting
// bit-identically, and upgrades to v2 bytes on re-encode.
func TestReadVersion1Compat(t *testing.T) {
	a := testArtifact(t)
	v1 := encodeV1(t, a)
	b, err := Read(v1)
	if err != nil {
		t.Fatalf("v1 read: %v", err)
	}
	if b.BackendTag() != BackendRF {
		t.Fatalf("v1 backend %q", b.BackendTag())
	}
	if b.Codec != a.Codec || !schemaMatches(a.Schema, b.Schema) || len(b.Meta) != len(a.Meta) {
		t.Fatal("v1 sections lost")
	}
	rows := probeRows(100, 9)
	want, err := a.Regressor.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Regressor.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "v1 decode vs original", got, want)
	// Re-encode upgrades to the current version and the result matches
	// encoding the source artifact directly.
	if !bytes.Equal(mustEncode(t, b), mustEncode(t, a)) {
		t.Fatal("v1 upgrade encode differs from direct v2 encode")
	}
	// v1 truncations stay classified.
	for n := 0; n < len(v1); n += 7 {
		if _, err := Read(v1[:n]); err == nil {
			t.Fatalf("v1 truncation at %d accepted", n)
		} else if safedec.Classify(err) == "" {
			t.Fatalf("v1 truncation at %d unclassified: %v", n, err)
		}
	}
}
