package httpkit

import (
	"fmt"
	"math"
	"net/url"
	"strconv"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/obs"
	"carol/internal/selector"
)

// Compress is a validated /v1/compress query: the one place a request
// becomes (dims, bound source, codec source). carolserve executes it; the
// gate checks it at the door, so a bad query never costs a shard round trip,
// and resolves bound and codec from it before a slab split.
type Compress struct {
	// Auto is mode=auto: the selector picks the codec and Codec is empty.
	Auto  bool
	Codec string
	// Target is mode=auto's optional target= ratio, 0 when absent.
	Target float64
	// Rel, Abs and Ratio are the bound sources, 0 when absent; at least one
	// is set, and Ratio wins over Abs wins over Rel.
	Rel, Abs, Ratio float64
	// Stream asks for a CPL1 container (stream=1) compressed by Workers
	// block workers (0 = default). A ratio= search answers a plain stream,
	// so Stream is false whenever Ratio is set.
	Stream  bool
	Workers int

	Nx, Ny, Nz int
}

// Positive parses query parameter name as a strictly positive finite
// number; an absent parameter is 0.
func Positive(q url.Values, name string) (float64, error) {
	s := q.Get(name)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v > 0) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad %s %q: need a positive finite number", name, s)
	}
	return v, nil
}

// ParseCompress validates a /v1/compress query. Every error is the
// client's: ErrTooLarge for oversized dims (413), anything else 400.
func ParseCompress(q url.Values) (Compress, error) {
	c := Compress{Codec: q.Get("codec")}
	switch mode := q.Get("mode"); mode {
	case "":
	case "auto":
		c.Auto = true
	default:
		return c, fmt.Errorf("bad mode %q (only \"auto\")", mode)
	}
	for _, p := range []struct {
		name string
		dst  *float64
	}{{"rel", &c.Rel}, {"abs", &c.Abs}, {"ratio", &c.Ratio}, {"target", &c.Target}} {
		v, err := Positive(q, p.name)
		if err != nil {
			return c, err
		}
		*p.dst = v
	}
	switch {
	case c.Auto && c.Ratio > 0:
		// ratio= runs its own FRaZ search per codec; combining it with
		// selection is a different (and much more expensive) operation.
		return c, fmt.Errorf("mode=auto needs rel= or abs=, not ratio=")
	case c.Auto && c.Codec != "":
		return c, fmt.Errorf("mode=auto and codec= are mutually exclusive")
	case !c.Auto && c.Target > 0:
		return c, fmt.Errorf("target= requires mode=auto")
	case !c.Auto && c.Codec == "":
		return c, fmt.Errorf("need codec= or mode=auto")
	case !(c.Rel > 0 || c.Abs > 0 || c.Ratio > 0):
		return c, fmt.Errorf("need rel=, abs= or ratio=")
	}
	if c.Stream = q.Get("stream") != "" && !(c.Ratio > 0); c.Stream {
		if ws := q.Get("workers"); ws != "" {
			v, err := strconv.Atoi(ws)
			if err != nil || v < 1 || v > 1024 {
				return c, fmt.Errorf("bad workers")
			}
			c.Workers = v
		}
	}
	var err error
	c.Nx, c.Ny, c.Nz, err = Dims(q.Get("dims"))
	return c, err
}

// Bound resolves a rel=/abs= request's absolute error bound against the
// whole field: abs= verbatim — the gate pins a whole-field bound across
// slab fan-outs with it, where a per-slab rel= would rescale by each slab's
// own value range — else rel= scaled by the field's value range, which is
// only asked for (a pass over the samples) when rel= decides. A bound that
// is not positive and finite (non-finite samples, overflow) is a client
// error.
func (c Compress) Bound(valueRange func() float64) (float64, error) {
	eb := c.Abs
	if !(eb > 0) {
		eb = compressor.RangeBound(valueRange(), c.Rel)
	}
	if !(eb > 0) || math.IsInf(eb, 0) {
		return 0, fmt.Errorf("error bound resolves to %g on this field", eb)
	}
	return eb, nil
}

// ResolveCodec names the codec that serves the request at (f, eb): codec=
// verbatim with a nil decision, or for mode=auto the selector's pick —
// every candidate scored by its ranking surrogate at this exact (field,
// eb). The caller hands the decision and the achieved ratio to sel.Observe,
// which records the prediction's miss. A selection error means the field
// itself is unusable (e.g. non-finite), so it is the client's. The
// selection is timed as tr's "select" span.
func (c Compress) ResolveCodec(tr *obs.Trace, sel *selector.Selector, f *field.Field, eb float64) (string, *selector.Decision, error) {
	if !c.Auto {
		return c.Codec, nil, nil
	}
	span := tr.StartSpan("select")
	dec, err := sel.Select(f, eb, c.Target)
	span.End()
	if err != nil {
		return "", nil, err
	}
	return dec.Codec, &dec, nil
}
