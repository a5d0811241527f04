package dataset

import (
	"math"
	"strings"
	"testing"

	"carol/internal/compressor"
	"carol/internal/features"
	"carol/internal/sz3"
)

func TestNamesAndSummary(t *testing.T) {
	names := Names()
	if len(names) != 8 { // the paper's six plus the Klacansky IT and JIC sets
		t.Fatalf("have %d datasets", len(names))
	}
	sum := Summary()
	if len(sum) != len(names) {
		t.Fatal("Summary/Names mismatch")
	}
	for i, s := range sum {
		if s.Name != names[i] || len(s.Fields) == 0 || s.Nx <= 0 {
			t.Fatalf("bad spec %+v", s)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("exa"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestGenerateUnknownField(t *testing.T) {
	if _, err := Generate("miranda", "entropy", Options{}); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestGenerateAllDatasetsAllFields(t *testing.T) {
	for _, spec := range Summary() {
		fields, err := GenerateAll(spec.Name, Options{Nx: 20, Ny: 20, Nz: 12})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if len(fields) != len(spec.Fields) {
			t.Fatalf("%s: %d fields", spec.Name, len(fields))
		}
		for _, f := range fields {
			for i, v := range f.Data {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("%s: non-finite sample at %d", f.Name, i)
				}
			}
			if f.ValueRange() == 0 {
				t.Fatalf("%s: constant field", f.Name)
			}
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, err := Generate("nyx", "temperature", Options{Nx: 16, Ny: 16, Nz: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("nyx", "temperature", Options{Nx: 16, Ny: 16, Nz: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Equalish(b, 0); err != nil {
		t.Fatalf("generation not deterministic: %v", err)
	}
}

func TestFieldsDiffer(t *testing.T) {
	a, err := Generate("miranda", "density", Options{Nx: 16, Ny: 16, Nz: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("miranda", "viscosity", Options{Nx: 16, Ny: 16, Nz: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Equalish(b, 1e-9); err == nil {
		t.Fatal("different fields identical")
	}
}

func TestCESMIs2D(t *testing.T) {
	f, err := Generate("cesm", "TS", Options{Nx: 64, Ny: 32, Nz: 9 /* ignored */})
	if err != nil {
		t.Fatal(err)
	}
	if f.Nz != 1 {
		t.Fatalf("CESM field has Nz = %d", f.Nz)
	}
}

func TestNYXLogNormalDynamicRange(t *testing.T) {
	f, err := Generate("nyx", "dark_matter_density", Options{Nx: 32, Ny: 32, Nz: 32})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := f.MinMax()
	if lo <= 0 {
		t.Fatalf("density non-positive: %g", lo)
	}
	if hi/lo < 100 {
		t.Fatalf("dynamic range %g, want >= 100 (log-normal)", hi/lo)
	}
}

func TestHurricaneEvolvesOverTime(t *testing.T) {
	opts := Options{Nx: 32, Ny: 32, Nz: 8}
	f0, err := Generate("hurricane", "P", opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.TimeStep = 30
	f30, err := Generate("hurricane", "P", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f0.Equalish(f30, 1); err == nil {
		t.Fatal("hurricane did not evolve between steps 0 and 30")
	}
	// The drift must show up in the compressibility features (the paper's
	// motivation for incremental refinement).
	v0 := features.ExtractFull(f0)
	v30 := features.ExtractFull(f30)
	if v0 == v30 {
		t.Fatal("features identical across 30 time steps")
	}
}

func TestHCCIKernelsAboveBackground(t *testing.T) {
	f, err := Generate("hcci", "temperature", Options{Nx: 32, Ny: 32, Nz: 32})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := f.MinMax()
	if lo < 600 || lo > 900 {
		t.Fatalf("background %g outside expected band", lo)
	}
	if hi < 1000 {
		t.Fatalf("no ignition kernels: max %g", hi)
	}
}

func TestMRSSheetStructure(t *testing.T) {
	f, err := Generate("mrs", "magnetic_reconnection", Options{Nx: 32, Ny: 32, Nz: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Mid-plane rows must carry more signal than the edges.
	mid, edge := 0.0, 0.0
	for x := 0; x < f.Nx; x++ {
		mid += float64(f.At(x, f.Ny/2, 0))
		edge += float64(f.At(x, 0, 0))
	}
	if mid <= edge {
		t.Fatalf("sheet not at mid-plane: mid %g edge %g", mid, edge)
	}
}

func TestSmoothnessOrderingAcrossDatasets(t *testing.T) {
	// Miranda diffusivity (2 octaves) must be smoother than NYX dark
	// matter density (6 octaves, log-normal) under the MND feature
	// normalized by range.
	opts := Options{Nx: 32, Ny: 32, Nz: 32}
	smooth, err := Generate("miranda", "diffusivity", opts)
	if err != nil {
		t.Fatal(err)
	}
	roughF, err := Generate("nyx", "dark_matter_density", opts)
	if err != nil {
		t.Fatal(err)
	}
	vs := features.ExtractFull(smooth)
	vr := features.ExtractFull(roughF)
	if vs.MND/vs.Range >= vr.MND/vr.Range {
		t.Fatalf("smoothness ordering violated: %g vs %g", vs.MND/vs.Range, vr.MND/vr.Range)
	}
}

func TestITIsotropyAndPositivity(t *testing.T) {
	f, err := Generate("it", "velocity_magnitude", Options{Nx: 32, Ny: 32, Nz: 32})
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := f.MinMax()
	if lo < 0 {
		t.Fatalf("velocity magnitude negative: %g", lo)
	}
	// Isotropy: per-axis mean gradients should be within 2x of each other.
	grad := func(dx, dy, dz int) float64 {
		var sum float64
		n := 0
		for z := 1; z < f.Nz-1; z++ {
			for y := 1; y < f.Ny-1; y++ {
				for x := 1; x < f.Nx-1; x++ {
					d := float64(f.At(x+dx, y+dy, z+dz)) - float64(f.At(x, y, z))
					sum += math.Abs(d)
					n++
				}
			}
		}
		return sum / float64(n)
	}
	gx, gy, gz := grad(1, 0, 0), grad(0, 1, 0), grad(0, 0, 1)
	for _, pair := range [][2]float64{{gx, gy}, {gy, gz}, {gx, gz}} {
		if pair[0] > 2*pair[1] || pair[1] > 2*pair[0] {
			t.Fatalf("anisotropic gradients: %g %g %g", gx, gy, gz)
		}
	}
}

func TestJICJetStructure(t *testing.T) {
	f, err := Generate("jic", "mixture_fraction", Options{Nx: 48, Ny: 24, Nz: 24})
	if err != nil {
		t.Fatal(err)
	}
	// The jet core near the inlet must be far above the ambient corner.
	inlet := f.At(1, f.Ny/2, f.Nz/2)
	corner := f.At(f.Nx-2, 1, 1)
	if inlet < 5*corner+0.05 {
		t.Fatalf("no jet contrast: inlet %g vs corner %g", inlet, corner)
	}
	lo, _ := f.MinMax()
	if lo < 0 {
		t.Fatalf("mixture fraction negative: %g", lo)
	}
}

func TestGeneratedDataCompressesWell(t *testing.T) {
	// Sanity link to the compressors: scientific-looking data should reach
	// decent ratios at 1e-2 relative bound.
	f, err := Generate("miranda", "pressure", Options{Nx: 48, Ny: 48, Nz: 16})
	if err != nil {
		t.Fatal(err)
	}
	c := sz3.New()
	stream, err := c.Compress(f, compressor.AbsBound(f, 1e-2))
	if err != nil {
		t.Fatal(err)
	}
	if r := compressor.Ratio(f, stream); r < 20 {
		t.Fatalf("miranda pressure ratio %g, want >= 20", r)
	}
}

// BenchmarkGenerate times one 64³ field of each family the benchmark's
// workloads draw from, and the two held-out fields that cost the most to
// synthesize, NYX dark_matter_density and Hurricane QCLOUD (6 octaves
// each).
func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct{ dataset, field string }{
		{"miranda", "density"}, {"nyx", "baryon_density"}, {"hurricane", "U"},
		{"nyx", "dark_matter_density"}, {"hurricane", "QCLOUD"},
	} {
		b.Run(c.dataset+"/"+c.field, func(b *testing.B) {
			b.SetBytes(4 * 64 * 64 * 64)
			for i := 0; i < b.N; i++ {
				if _, err := Generate(c.dataset, c.field, Options{Nx: 64, Ny: 64, Nz: 64}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGenerateRefusesOversizedGrids: a grid past MaxSamples is an error
// naming its dims, returned before any allocation, whether its float32
// bytes cannot be allocated (100000³) or its sample count overflows int64
// (2²²·2²¹·2²¹ = 2⁶⁴ wraps to 0, 2⁶³ to a negative length). Every case is
// far past anything a host could allocate, so a broken check fails here
// without filling memory.
func TestGenerateRefusesOversizedGrids(t *testing.T) {
	for _, c := range []struct {
		opts Options
		dims string
	}{
		{Options{Nx: 100000, Ny: 100000, Nz: 100000}, "100000x100000x100000"},
		{Options{Nx: 1 << 22, Ny: 1 << 21, Nz: 1 << 21}, "4194304x2097152x2097152"},
		{Options{Nx: 1 << 21, Ny: 1 << 21, Nz: 1 << 21}, "2097152x2097152x2097152"},
	} {
		f, err := Generate("miranda", "density", c.opts)
		if err == nil || f != nil {
			t.Fatalf("%s: Generate returned (%v, %v), want an error", c.dims, f, err)
		}
		if !strings.Contains(err.Error(), c.dims) {
			t.Fatalf("%s: error %q does not name the grid", c.dims, err)
		}
	}
}

// TestGenerateRefusesOutOfRangeSteps: a step outside [0, TimeSteps) is an
// error naming the dataset, the step and the valid range, not a field (NYX
// has no step 500, and Miranda's one snapshot is not its step 7).
func TestGenerateRefusesOutOfRangeSteps(t *testing.T) {
	for _, c := range []struct {
		dataset, field string
		step           int
		want           string
	}{
		{"nyx", "temperature", 500, "nyx has no time step 500 (have 0..7)"},
		{"nyx", "temperature", 8, "nyx has no time step 8 (have 0..7)"},
		{"nyx", "temperature", -3, "nyx has no time step -3 (have 0..7)"},
		{"miranda", "density", 7, "miranda has no time step 7 (have 0..0)"},
		{"hurricane", "P", 48, "hurricane has no time step 48 (have 0..47)"},
	} {
		f, err := Generate(c.dataset, c.field, Options{Nx: 8, Ny: 8, Nz: 8, TimeStep: c.step})
		if err == nil || f != nil {
			t.Fatalf("%s step %d: Generate returned error %v, want an error and no field", c.dataset, c.step, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s step %d: error %q, want it to say %q", c.dataset, c.step, err, c.want)
		}
	}
	for _, step := range []int{0, 7} {
		if _, err := Generate("nyx", "temperature", Options{Nx: 8, Ny: 8, Nz: 8, TimeStep: step}); err != nil {
			t.Fatalf("nyx step %d: %v", step, err)
		}
	}
}
