// Package codecs provides the registry tying compressor names to their
// implementations and SECRE surrogates, so frameworks and tools can be
// configured with plain strings ("szx", "zfp", "sz3", "sperr").
package codecs

import (
	"fmt"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/secre"
	"carol/internal/sperr"
	"carol/internal/sz3"
	"carol/internal/szp"
	"carol/internal/szx"
	"carol/internal/zfp"
)

// codec is one row of the registry: every fact the framework keeps about a
// compressor. Adding a codec is adding a row (DESIGN.md §1.2).
type codec struct {
	name           string
	build          func() compressor.Codec
	magic          byte             // first byte of every stream it writes
	paper          bool             // one of the paper's four (Names)
	highThroughput bool             // see HighThroughput
	cost           int              // see Cost
	surrogate      *secre.Estimator // SECRE at default sampling
	search         *secre.Estimator // see SearchSurrogate; nil: real probes only
}

// registry holds one row per codec in canonical order: the paper's four,
// then the extensions. Names and ExtendedNames follow it.
//
// The search surrogates are those that can say the ratios asked for. SZx
// keeps the extrema of up to 8191 blocks — every block of a 64^3 field,
// which makes its estimate the exact payload size there; at the default 16
// blocks a search on it is worse than none. SZ3 sizes its codes by their
// entropy: SECRE's fixed width is flat above ratio 10.7, where the targets
// are. SPERR and SZP have none (DESIGN.md §21).
var registry = []codec{
	{"szx", func() compressor.Codec { return szx.New() }, compressor.MagicSZx, true, true, 0,
		surrogate("szx", secre.Options{}), surrogate("szx", secre.Options{MinSampledBlocks: 4096})},
	{"zfp", func() compressor.Codec { return zfp.New() }, compressor.MagicZFP, true, true, 2,
		surrogate("zfp", secre.Options{}), surrogate("zfp", secre.Options{})},
	{"sz3", func() compressor.Codec { return sz3.New() }, compressor.MagicSZ3, true, false, 3,
		surrogate("sz3", secre.Options{}), surrogate("sz3", secre.Options{EntropySized: true})},
	{"sperr", func() compressor.Codec { return sperr.New() }, compressor.MagicSPERR, true, false, 4,
		surrogate("sperr", secre.Options{}), nil},
	{"szp", func() compressor.Codec { return szp.New() }, szp.MagicSZP, false, false, 1,
		surrogate("szp", secre.Options{}), nil},
}

func surrogate(name string, opts secre.Options) *secre.Estimator {
	est, err := secre.New(name, opts)
	if err != nil {
		panic(err) // unreachable: every row's codec has a surrogate
	}
	return est
}

// Names lists the compressors of the paper's evaluation, in its canonical
// order. The experiment harness iterates over exactly these four so its
// tables match the paper's.
var Names = names(true)

// ExtendedNames additionally includes the extension codecs available via
// ByName (currently szp, the cuSZp-style delta compressor named in the
// paper's experimental setup).
var ExtendedNames = names(false)

func names(paperOnly bool) []string {
	var out []string
	for _, r := range registry {
		if r.paper || !paperOnly {
			out = append(out, r.name)
		}
	}
	return out
}

// lookup returns name's row, or a zero row and an error.
func lookup(name string) (codec, error) {
	for _, r := range registry {
		if r.name == name {
			return r, nil
		}
	}
	return codec{}, fmt.Errorf("codecs: unknown compressor %q (have %v)", name, ExtendedNames)
}

// HighThroughput reports whether name belongs to the paper's
// "high throughput" group (SZx, ZFP) as opposed to the
// "high compression ratio" group (SZ3, SPERR), which szp calibrates with.
func HighThroughput(name string) bool {
	r, _ := lookup(name)
	return r.highThroughput
}

// Cost ranks name by the compute cost of a full compression run, following
// the paper's throughput grouping: the delta-family codecs (SZx, SZP) are
// cheapest, ZFP's block transform is next, and the prediction/wavelet
// codecs (SZ3, SPERR) are the expensive high-compression end. An unknown
// name ranks after every registered codec.
func Cost(name string) int {
	if r, err := lookup(name); err == nil {
		return r.cost
	}
	return len(registry)
}

// Magic returns the first byte of every stream name writes.
func Magic(name string) (byte, error) {
	r, err := lookup(name)
	return r.magic, err
}

// Sniff maps a stream's leading magic byte back to the codec that wrote it.
func Sniff(magic byte) (string, error) {
	for _, r := range registry {
		if r.magic == magic {
			return r.name, nil
		}
	}
	return "", fmt.Errorf("codecs: unrecognized stream magic 0x%02X", magic)
}

// ByName returns the full compressor for name, wrapped with the
// compressor.Instrument observability layer so every Compress/Decompress
// issued through the registry shows up in obs.Default's per-codec latency
// and throughput metrics (DESIGN.md §10).
func ByName(name string) (compressor.Codec, error) {
	r, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return compressor.Instrument(r.build()), nil
}

// SurrogateByName returns the SECRE surrogate estimator for name with
// default sampling options. The estimator is immutable and shared.
func SurrogateByName(name string) (compressor.Estimator, error) {
	r, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return r.surrogate, nil
}

// SearchSurrogate binds the named codec's search surrogate to f and returns
// its per-bound estimate for fraz.Options.Surrogate, or nil where the
// search should stay on real probes: another codec, or a field the
// surrogate rejects (the search's first compression then reports why).
func SearchSurrogate(name string, f *field.Field) func(eb float64) (float64, error) {
	r, _ := lookup(name)
	if r.search == nil {
		return nil
	}
	b, err := r.search.Prepare(f)
	if err != nil {
		return nil
	}
	return b.Ratio
}
