package experiments

import (
	"testing"
	"time"

	"carol/internal/dataset"
)

// tinyParams keeps collect-path smoke tests in the millisecond range.
func tinyParams() params {
	return params{
		dims3D:     dataset.Options{Nx: 12, Ny: 12, Nz: 8},
		timingDims: dataset.Options{Nx: 12, Ny: 12, Nz: 8},
		sweep:      []float64{1e-2, 1e-3},
		boIters:    1,
		gridCfgs:   2,
		forestCap:  4,
		seed:       1,
	}
}

func TestDatasetFields(t *testing.T) {
	p := tinyParams()
	fields, err := datasetFields(p, "miranda", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 {
		t.Fatalf("got %d fields, want 2", len(fields))
	}
	for _, f := range fields {
		if len(f.Data) == 0 {
			t.Fatalf("field %q is empty", f.Name)
		}
	}
	// maxFields beyond the spec's field count returns every field.
	spec, err := dataset.Lookup("miranda")
	if err != nil {
		t.Fatal(err)
	}
	all, err := datasetFields(p, "miranda", len(spec.Fields)+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(spec.Fields) {
		t.Fatalf("got %d fields, want %d", len(all), len(spec.Fields))
	}
}

func TestDatasetFieldsUnknownDataset(t *testing.T) {
	if _, err := datasetFields(tinyParams(), "no-such-dataset", 2); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestCollectedTrainingData(t *testing.T) {
	p := tinyParams()
	X, y, err := collectedTrainingData(p, "miranda")
	if err != nil {
		t.Fatal(err)
	}
	// 3 fields x 2 sweep points.
	if len(X) != 6 || len(y) != 6 {
		t.Fatalf("got %dx%d samples, want 6x6", len(X), len(y))
	}
	// Targets are log10 of the relative error bound, so the 1e-2/1e-3 sweep
	// must come back as -2/-3 pairs per field.
	for i, row := range X {
		if len(row) == 0 {
			t.Fatalf("sample %d has no features", i)
		}
		want := -2.0
		if i%2 == 1 {
			want = -3.0
		}
		if y[i] != want {
			t.Fatalf("sample %d: target %g, want %g", i, y[i], want)
		}
	}
}

func TestCollectedTrainingDataUnknownDataset(t *testing.T) {
	if _, _, err := collectedTrainingData(tinyParams(), "no-such-dataset"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestMedianTime(t *testing.T) {
	calls := 0
	d := medianTime(5, func() { calls++; time.Sleep(time.Millisecond) })
	if calls != 5 {
		t.Fatalf("fn ran %d times, want 5", calls)
	}
	if d < time.Millisecond {
		t.Fatalf("median %v below the sleep floor", d)
	}
	// runs < 1 is clamped to a single run.
	calls = 0
	medianTime(0, func() { calls++ })
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
}

func TestDurationMicros(t *testing.T) {
	if d := durationMicros(1500); d != 1500*time.Microsecond {
		t.Fatalf("durationMicros(1500) = %v", d)
	}
}

func TestGenAtCESMAspect(t *testing.T) {
	p := tinyParams()
	f, err := p.genField("cesm", "CLDHGH", 0)
	if err != nil {
		t.Fatal(err)
	}
	// cesm is 2D: genAt widens x/y and drops z.
	if f.Nz != 1 {
		t.Fatalf("cesm field Nz = %d, want 1", f.Nz)
	}
	if f.Nx != p.dims3D.Nx*4 || f.Ny != p.dims3D.Ny*2 {
		t.Fatalf("cesm dims %dx%d, want %dx%d", f.Nx, f.Ny, p.dims3D.Nx*4, p.dims3D.Ny*2)
	}
}

func TestTimeIt(t *testing.T) {
	d, err := timeIt(func() error { time.Sleep(time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if d < time.Millisecond {
		t.Fatalf("measured %v below the sleep floor", d)
	}
}
