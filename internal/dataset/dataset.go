// Package dataset procedurally generates stand-ins for the six scientific
// datasets of the CAROL evaluation (Table 2 of the paper): Miranda, NYX,
// CESM, Hurricane Isabel, HCCI and MRS.
//
// The real datasets are multi-gigabyte binaries from SDRBench and the
// Klacansky collection; this package synthesizes fields with the same
// statistical character (smoothness spectra, dynamic range, structure) at
// configurable resolutions, deterministically from (dataset, field,
// timestep). See DESIGN.md §2 for why this substitution preserves the
// behaviours the CAROL experiments measure.
package dataset

import (
	"fmt"
	"hash/fnv"
	"math"

	"carol/internal/field"
	"carol/internal/xrand"
)

// Spec summarizes one dataset (the Table 2 analogue).
type Spec struct {
	Name      string
	Domain    string
	Fields    []string
	TimeSteps int // >1 for time-evolving datasets
	// Default generation dims (scaled down from the paper's sizes).
	Nx, Ny, Nz int
	// PaperDims records the original resolution for documentation.
	PaperDims string
}

var specs = []Spec{
	{
		Name: "miranda", Domain: "Turbulence",
		Fields:    []string{"density", "diffusivity", "pressure", "velocityx", "velocityy", "velocityz", "viscosity"},
		TimeSteps: 1, Nx: 64, Ny: 48, Nz: 64, PaperDims: "256x384x384",
	},
	{
		Name: "nyx", Domain: "Cosmology",
		Fields:    []string{"baryon_density", "dark_matter_density", "temperature", "velocity_x"},
		TimeSteps: 8, Nx: 64, Ny: 64, Nz: 64, PaperDims: "512x512x512",
	},
	{
		Name: "cesm", Domain: "Climate",
		Fields:    []string{"CLDHGH", "CLDLOW", "FLDSC", "FREQSH", "PHIS", "PS", "TS", "U10"},
		TimeSteps: 1, Nx: 512, Ny: 256, Nz: 1, PaperDims: "1800x3600 (2D)",
	},
	{
		Name: "hurricane", Domain: "Weather",
		Fields:    []string{"CLOUD", "P", "PRECIP", "QCLOUD", "QGRAUP", "QICE", "QRAIN", "QSNOW", "QVAPOR", "TC", "U", "V", "W"},
		TimeSteps: 48, Nx: 64, Ny: 64, Nz: 24, PaperDims: "100x500x500 x 48 steps",
	},
	{
		Name: "hcci", Domain: "Autoignition",
		Fields:    []string{"temperature"},
		TimeSteps: 1, Nx: 64, Ny: 64, Nz: 64, PaperDims: "560x560x560",
	},
	{
		Name: "mrs", Domain: "Magnetic reconnection",
		Fields:    []string{"magnetic_reconnection"},
		TimeSteps: 1, Nx: 64, Ny: 64, Nz: 64, PaperDims: "512x512x512",
	},
	{
		Name: "it", Domain: "Isotropic turbulence",
		Fields:    []string{"velocity_magnitude"},
		TimeSteps: 1, Nx: 64, Ny: 64, Nz: 64, PaperDims: "1024x1024x1024 (Klacansky IT)",
	},
	{
		Name: "jic", Domain: "Jet in crossflow",
		Fields:    []string{"mixture_fraction"},
		TimeSteps: 1, Nx: 96, Ny: 48, Nz: 48, PaperDims: "1408x1080x1100 (Klacansky JIC)",
	},
}

// Names returns the dataset names in canonical order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Summary returns the Table 2 analogue for all datasets.
func Summary() []Spec {
	return append([]Spec(nil), specs...)
}

// Lookup returns the Spec for a dataset name.
func Lookup(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q (have %v)", name, Names())
}

// MaxSamples caps the grid one Generate call synthesizes: 1<<28 samples, a
// 1 GiB float32 field, the element cap safedec.Default puts on a decoded
// field. Generate refuses a larger grid before it allocates anything.
const MaxSamples = 1 << 28

// Options controls generation. Zero values use the dataset defaults.
type Options struct {
	Nx, Ny, Nz int // grid dims; 0 uses the dataset default
	TimeStep   int // snapshot index in [0, Spec.TimeSteps)
}

// Generate synthesizes one field of one dataset. It returns an error naming
// the grid when nx·ny·nz exceeds MaxSamples, and one naming the step when
// opts.TimeStep is outside [0, Spec.TimeSteps).
func Generate(dataset, fieldName string, opts Options) (*field.Field, error) {
	spec, err := Lookup(dataset)
	if err != nil {
		return nil, err
	}
	found := false
	for _, f := range spec.Fields {
		if f == fieldName {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("dataset: %s has no field %q (have %v)", dataset, fieldName, spec.Fields)
	}
	if opts.TimeStep < 0 || opts.TimeStep >= spec.TimeSteps {
		return nil, fmt.Errorf("dataset: %s has no time step %d (have 0..%d)", dataset, opts.TimeStep, spec.TimeSteps-1)
	}
	nx, ny, nz := spec.Nx, spec.Ny, spec.Nz
	if opts.Nx > 0 {
		nx = opts.Nx
	}
	if opts.Ny > 0 {
		ny = opts.Ny
	}
	if opts.Nz > 0 {
		nz = opts.Nz
	}
	if spec.Nz == 1 {
		nz = 1
	}
	// nx·ny ≤ ⌊MaxSamples/nz⌋ exactly when nx·ny·nz ≤ MaxSamples, and neither
	// side can overflow once nx and ny are within the cap.
	if nx > MaxSamples || ny > MaxSamples || int64(nx)*int64(ny) > MaxSamples/int64(nz) {
		return nil, fmt.Errorf("dataset: %s/%s: %dx%dx%d grid exceeds %d samples", dataset, fieldName, nx, ny, nz, MaxSamples)
	}
	seed := seedFor(dataset, fieldName)
	f := field.New(dataset+"/"+fieldName, nx, ny, nz)
	switch dataset {
	case "miranda":
		genMiranda(f, fieldName, seed)
	case "nyx":
		genNYX(f, fieldName, seed, opts.TimeStep)
	case "cesm":
		genCESM(f, fieldName, seed)
	case "hurricane":
		genHurricane(f, fieldName, seed, opts.TimeStep)
	case "hcci":
		genHCCI(f, seed)
	case "mrs":
		genMRS(f, seed)
	case "it":
		genIT(f, seed)
	case "jic":
		genJIC(f, seed)
	}
	return f, nil
}

// GenerateAll synthesizes every field of a dataset at one time step.
func GenerateAll(dataset string, opts Options) ([]*field.Field, error) {
	spec, err := Lookup(dataset)
	if err != nil {
		return nil, err
	}
	out := make([]*field.Field, 0, len(spec.Fields))
	for _, fn := range spec.Fields {
		f, err := Generate(dataset, fn, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func seedFor(dataset, fieldName string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(dataset))
	h.Write([]byte{0})
	h.Write([]byte(fieldName))
	return h.Sum64()
}

// fillRows fills f one x-row at a time: row(y, z, out) writes the Nx
// samples of row (y, z) into out, and fillRows stores them as float32.
func fillRows(f *field.Field, row func(y, z int, out []float64)) {
	out := make([]float64, f.Nx)
	for z := 0; z < f.Nz; z++ {
		for y := 0; y < f.Ny; y++ {
			row(y, z, out)
			dst := f.Data[(z*f.Ny+y)*f.Nx:][:f.Nx]
			for i, v := range out {
				dst[i] = float32(v)
			}
		}
	}
}

// axis returns the FBmRow axis of the n x coordinates coord(0), ...,
// coord(n-1), given as float64.
func axis(n int, coord func(x float64) float64) *xrand.Axis {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = coord(float64(i))
	}
	return xrand.NewAxis(xs)
}

// columns tabulates fn, a term of a generator that does not depend on z,
// once per (x, y) column, at index y*Nx + x.
func columns(f *field.Field, fn func(x, y float64) float64) []float64 {
	out := make([]float64, f.Nx*f.Ny)
	for y := 0; y < f.Ny; y++ {
		for x := 0; x < f.Nx; x++ {
			out[y*f.Nx+x] = fn(float64(x), float64(y))
		}
	}
	return out
}

// genMiranda produces turbulence-simulation fields: smooth multi-octave fBm
// with per-field spectral character (the paper's density/viscosity/velocity
// fields differ mainly in fine-scale energy and offsets).
func genMiranda(f *field.Field, name string, seed uint64) {
	n := xrand.NewNoise(seed)
	var octaves int
	var gain, amp, offset float64
	switch name {
	case "density":
		octaves, gain, amp, offset = 4, 0.5, 0.6, 1.5
	case "diffusivity":
		octaves, gain, amp, offset = 2, 0.4, 0.3, 1.0
	case "pressure":
		octaves, gain, amp, offset = 3, 0.45, 2.0, 10.0
	case "viscosity":
		octaves, gain, amp, offset = 5, 0.6, 0.2, 0.4
	default: // velocity components: zero-mean, more fine-scale energy
		octaves, gain, amp, offset = 5, 0.55, 1.2, 0
	}
	ax := axis(f.Nx, func(x float64) float64 { return x / 24 })
	fillRows(f, func(y, z int, out []float64) {
		n.FBmRow(out, ax, float64(y)/24, float64(z)/24, octaves, gain)
		for i, v := range out {
			out[i] = offset + amp*v
		}
	})
}

// genNYX produces cosmology fields: log-normal density fields with very
// large dynamic range, and a temperature field spanning decades.
func genNYX(f *field.Field, name string, seed uint64, step int) {
	n := xrand.NewNoise(seed)
	// Structure sharpens slightly with time (gravitational collapse).
	sharp := 1 + 0.08*float64(step)
	toff := 7.9 * float64(step)
	var scale, gain float64
	var octaves int
	var shape func(v float64) float64
	switch name {
	case "baryon_density":
		scale, octaves, gain = 20, 5, 0.55
		shape = func(v float64) float64 {
			return math.Exp(3.5 * sharp * v) // log-normal, range ~e^-3.5..e^3.5
		}
	case "dark_matter_density":
		scale, octaves, gain = 16, 6, 0.6
		shape = func(v float64) float64 { return math.Exp(4.5 * sharp * v) }
	case "temperature":
		scale, octaves, gain = 24, 4, 0.5
		shape = func(v float64) float64 {
			return 1e4 * math.Exp(2.5*v) // ~5e2 .. 2e5 K
		}
	default: // velocity_x
		scale, octaves, gain = 28, 4, 0.5
		shape = func(v float64) float64 { return 3e2 * v }
	}
	ax := axis(f.Nx, func(x float64) float64 { return x/scale + toff })
	fillRows(f, func(y, z int, out []float64) {
		n.FBmRow(out, ax, float64(y)/scale, float64(z)/scale, octaves, gain)
		for i, v := range out {
			out[i] = shape(v)
		}
	})
}

// genCESM produces 2D climate fields with latitudinal banding plus
// weather-scale noise.
func genCESM(f *field.Field, name string, seed uint64) {
	n := xrand.NewNoise(seed)
	ny := float64(f.Ny)
	// Field-specific amplitude/offset keep value ranges distinct.
	amp, offset := 1.0, 0.0
	switch name {
	case "PS":
		amp, offset = 5e3, 1e5
	case "TS":
		amp, offset = 40, 280
	case "PHIS":
		amp, offset = 2e4, 2e4
	case "U10":
		amp, offset = 8, 5
	default: // cloud fractions etc. in [0,1]
		amp, offset = 0.4, 0.5
	}
	ax := axis(f.Nx, func(x float64) float64 { return x / 30 })
	fillRows(f, func(yi, _ int, out []float64) {
		y := float64(yi)
		lat := math.Pi * (y/ny - 0.5) // -pi/2 .. pi/2
		band := math.Cos(lat) + 0.3*math.Cos(3*lat)
		n.FBmRow(out, ax, y/30, 0.5, 4, 0.55)
		for i, v := range out {
			out[i] = offset + amp*(0.5*band+0.5*v)
		}
	})
}

// genHurricane produces time-evolving weather fields: a translating vortex
// (the hurricane eye) superimposed on synoptic-scale noise. The vortex
// center moves with the time step, so data characteristics drift — the
// property §5.3 of the paper uses to motivate incremental refinement.
func genHurricane(f *field.Field, name string, seed uint64, step int) {
	n := xrand.NewNoise(seed)
	t := float64(step)
	// Eye track: translates diagonally and strengthens then weakens.
	cx := 0.2 + 0.013*t
	cy := 0.3 + 0.009*t
	strength := math.Sin(math.Pi*(t+6)/60) + 0.2
	amp, offset := 1.0, 0.0
	rough := 4
	switch name {
	case "P":
		amp, offset = -3e3, 1e5 // pressure drop at the eye
	case "TC":
		amp, offset = 12, 15
	case "U", "V", "W":
		amp, offset = 25, 0
		rough = 5
	case "PRECIP", "QRAIN", "QSNOW", "QGRAUP", "QICE", "QCLOUD", "CLOUD":
		amp, offset = 0.8, 0.1
		rough = 6
	default: // QVAPOR
		amp, offset = 0.02, 0.01
	}
	nx, ny := float64(f.Nx), float64(f.Ny)
	eye := columns(f, func(x, y float64) float64 {
		dx, dy := x/nx-cx, y/ny-cy
		r2 := dx*dx + dy*dy
		return strength * math.Exp(-r2*40)
	})
	ax := axis(f.Nx, func(x float64) float64 { return x/18 + 0.7*t })
	fillRows(f, func(yi, zi int, out []float64) {
		y, z := float64(yi), float64(zi)
		decay := 1 - 0.5*z/float64(f.Nz)
		n.FBmRow(out, ax, y/18+0.4*t, z/10, rough, 0.55)
		for i, noise := range out {
			vortex := eye[yi*f.Nx+i] * decay
			out[i] = offset + amp*(vortex+0.35*noise)
		}
	})
}

// genHCCI produces an autoignition temperature field: a warm homogeneous
// background with hot ignition kernels.
func genHCCI(f *field.Field, seed uint64) {
	n := xrand.NewNoise(seed)
	rng := xrand.New(seed)
	type kernel struct{ x, y, z, r, amp float64 }
	kernels := make([]kernel, 12)
	for i := range kernels {
		kernels[i] = kernel{
			x: rng.Float64(), y: rng.Float64(), z: rng.Float64(),
			r: 0.03 + 0.08*rng.Float64(), amp: 300 + 500*rng.Float64(),
		}
	}
	nx, ny, nz := float64(f.Nx), float64(f.Ny), float64(f.Nz)
	ax := axis(f.Nx, func(x float64) float64 { return x / 20 })
	fillRows(f, func(yi, zi int, out []float64) {
		y, z := float64(yi), float64(zi)
		n.FBmRow(out, ax, y/20, z/20, 3, 0.5)
		for i, fbm := range out {
			x := float64(i)
			v := 800 + 30*fbm
			for _, k := range kernels {
				dx, dy, dz := x/nx-k.x, y/ny-k.y, z/nz-k.z
				v += k.amp * math.Exp(-(dx*dx+dy*dy+dz*dz)/(2*k.r*k.r))
			}
			out[i] = v
		}
	})
}

// genIT produces homogeneous isotropic turbulence: multi-octave fBm with a
// steep spectrum and no large-scale anisotropy, shaped into a velocity
// magnitude (non-negative, heavy intermittent tails).
func genIT(f *field.Field, seed uint64) {
	nu, nv, nw := xrand.NewNoise(seed), xrand.NewNoise(seed^0x55aa), xrand.NewNoise(seed^0x1234)
	// One Axis per Noise: each keeps the cell cache of its own seed.
	coord := func(x float64) float64 { return x / 14 }
	au, av, aw := axis(f.Nx, coord), axis(f.Nx, coord), axis(f.Nx, coord)
	v, w := make([]float64, f.Nx), make([]float64, f.Nx)
	fillRows(f, func(yi, zi int, u []float64) {
		y, z := float64(yi)/14, float64(zi)/14
		nu.FBmRow(u, au, y, z, 6, 0.62)
		nv.FBmRow(v, av, y, z, 6, 0.62)
		nw.FBmRow(w, aw, y, z, 6, 0.62)
		for i := range u {
			u[i] = math.Sqrt(u[i]*u[i] + v[i]*v[i] + w[i]*w[i])
		}
	})
}

// genJIC produces a jet-in-crossflow mixture fraction: a bent jet core with
// a turbulent shear layer decaying into the crossflow.
func genJIC(f *field.Field, seed uint64) {
	n := xrand.NewNoise(seed)
	nx, ny, nz := float64(f.Nx), float64(f.Ny), float64(f.Nz)
	ax := axis(f.Nx, func(x float64) float64 { return x / 10 })
	fillRows(f, func(yi, zi int, out []float64) {
		y, z := float64(yi), float64(zi)
		n.FBmRow(out, ax, y/10, z/10, 5, 0.6)
		for i, fbm := range out {
			// Jet enters at (x=0, center of y/z) and bends downstream (+x).
			t := float64(i) / nx
			cy := 0.5 + 0.25*t*t // trajectory bends with distance
			dy := y/ny - cy
			dz := z/nz - 0.5
			r2 := dy*dy + dz*dz
			width := 0.02 + 0.12*t // jet spreads
			core := math.Exp(-r2 / (2 * width))
			turb := 0.25 * (1 + t) * fbm
			v := core*(1-0.5*t) + core*turb
			if v < 0 {
				v = 0
			}
			out[i] = v
		}
	})
}

// genMRS produces a magnetic-reconnection field: an intense current sheet
// (tanh profile) perturbed into magnetic islands.
func genMRS(f *field.Field, seed uint64) {
	n := xrand.NewNoise(seed)
	ny := float64(f.Ny)
	nx := float64(f.Nx)
	sheet := columns(f, func(x, y float64) float64 {
		// Sheet at mid-plane, rippled by the island wavenumber.
		ripple := 0.06 * math.Sin(4*math.Pi*x/nx)
		d := (y/ny - 0.5 - ripple) * 14
		return 1 / (math.Cosh(d) * math.Cosh(d)) // sech^2 current profile
	})
	ax := axis(f.Nx, func(x float64) float64 { return x / 16 })
	fillRows(f, func(yi, zi int, out []float64) {
		n.FBmRow(out, ax, float64(yi)/16, float64(zi)/16, 5, 0.6)
		for i, v := range out {
			out[i] = sheet[yi*f.Nx+i] + 0.08*v
		}
	})
}
