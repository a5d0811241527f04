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

// Options controls generation. Zero values use the dataset defaults.
type Options struct {
	Nx, Ny, Nz int // grid dims; 0 uses the dataset default
	TimeStep   int // snapshot index for time-evolving datasets
}

// Generate synthesizes one field of one dataset.
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

// fill evaluates fn over the grid with coordinates normalized by scale.
func fill(f *field.Field, fn func(x, y, z float64) float64) {
	for z := 0; z < f.Nz; z++ {
		for y := 0; y < f.Ny; y++ {
			for x := 0; x < f.Nx; x++ {
				f.Set(x, y, z, float32(fn(float64(x), float64(y), float64(z))))
			}
		}
	}
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
	fill(f, func(x, y, z float64) float64 {
		return offset + amp*n.FBm(x/24, y/24, z/24, octaves, gain)
	})
}

// genNYX produces cosmology fields: log-normal density fields with very
// large dynamic range, and a temperature field spanning decades.
func genNYX(f *field.Field, name string, seed uint64, step int) {
	n := xrand.NewNoise(seed)
	// Structure sharpens slightly with time (gravitational collapse).
	sharp := 1 + 0.08*float64(step)
	toff := 7.9 * float64(step)
	switch name {
	case "baryon_density":
		fill(f, func(x, y, z float64) float64 {
			v := n.FBm(x/20+toff, y/20, z/20, 5, 0.55)
			return math.Exp(3.5 * sharp * v) // log-normal, range ~e^-3.5..e^3.5
		})
	case "dark_matter_density":
		fill(f, func(x, y, z float64) float64 {
			v := n.FBm(x/16+toff, y/16, z/16, 6, 0.6)
			return math.Exp(4.5 * sharp * v)
		})
	case "temperature":
		fill(f, func(x, y, z float64) float64 {
			v := n.FBm(x/24+toff, y/24, z/24, 4, 0.5)
			return 1e4 * math.Exp(2.5*v) // ~5e2 .. 2e5 K
		})
	default: // velocity_x
		fill(f, func(x, y, z float64) float64 {
			return 3e2 * n.FBm(x/28+toff, y/28, z/28, 4, 0.5)
		})
	}
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
	fill(f, func(x, y, _ float64) float64 {
		lat := math.Pi * (y/ny - 0.5) // -pi/2 .. pi/2
		band := math.Cos(lat) + 0.3*math.Cos(3*lat)
		return offset + amp*(0.5*band+0.5*n.FBm(x/30, y/30, 0.5, 4, 0.55))
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
	fill(f, func(x, y, z float64) float64 {
		dx, dy := x/nx-cx, y/ny-cy
		r2 := dx*dx + dy*dy
		vortex := strength * math.Exp(-r2*40) * (1 - 0.5*z/float64(f.Nz))
		noise := n.FBm(x/18+0.7*t, y/18+0.4*t, z/10, rough, 0.55)
		return offset + amp*(vortex+0.35*noise)
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
	fill(f, func(x, y, z float64) float64 {
		v := 800 + 30*n.FBm(x/20, y/20, z/20, 3, 0.5)
		for _, k := range kernels {
			dx, dy, dz := x/nx-k.x, y/ny-k.y, z/nz-k.z
			v += k.amp * math.Exp(-(dx*dx+dy*dy+dz*dz)/(2*k.r*k.r))
		}
		return v
	})
}

// genIT produces homogeneous isotropic turbulence: multi-octave fBm with a
// steep spectrum and no large-scale anisotropy, shaped into a velocity
// magnitude (non-negative, heavy intermittent tails).
func genIT(f *field.Field, seed uint64) {
	nu, nv, nw := xrand.NewNoise(seed), xrand.NewNoise(seed^0x55aa), xrand.NewNoise(seed^0x1234)
	fill(f, func(x, y, z float64) float64 {
		u := nu.FBm(x/14, y/14, z/14, 6, 0.62)
		v := nv.FBm(x/14, y/14, z/14, 6, 0.62)
		w := nw.FBm(x/14, y/14, z/14, 6, 0.62)
		return math.Sqrt(u*u + v*v + w*w)
	})
}

// genJIC produces a jet-in-crossflow mixture fraction: a bent jet core with
// a turbulent shear layer decaying into the crossflow.
func genJIC(f *field.Field, seed uint64) {
	n := xrand.NewNoise(seed)
	nx, ny, nz := float64(f.Nx), float64(f.Ny), float64(f.Nz)
	fill(f, func(x, y, z float64) float64 {
		// Jet enters at (x=0, center of y/z) and bends downstream (+x).
		t := x / nx
		cy := 0.5 + 0.25*t*t // trajectory bends with distance
		dy := y/ny - cy
		dz := z/nz - 0.5
		r2 := dy*dy + dz*dz
		width := 0.02 + 0.12*t // jet spreads
		core := math.Exp(-r2 / (2 * width))
		turb := 0.25 * (1 + t) * n.FBm(x/10, y/10, z/10, 5, 0.6)
		v := core*(1-0.5*t) + core*turb
		if v < 0 {
			v = 0
		}
		return v
	})
}

// genMRS produces a magnetic-reconnection field: an intense current sheet
// (tanh profile) perturbed into magnetic islands.
func genMRS(f *field.Field, seed uint64) {
	n := xrand.NewNoise(seed)
	ny := float64(f.Ny)
	nx := float64(f.Nx)
	fill(f, func(x, y, z float64) float64 {
		// Sheet at mid-plane, rippled by the island wavenumber.
		ripple := 0.06 * math.Sin(4*math.Pi*x/nx)
		d := (y/ny - 0.5 - ripple) * 14
		sheet := 1 / (math.Cosh(d) * math.Cosh(d)) // sech^2 current profile
		return sheet + 0.08*n.FBm(x/16, y/16, z/16, 5, 0.6)
	})
}
