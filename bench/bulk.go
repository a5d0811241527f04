package main

import (
	"bytes"
	"fmt"
	"time"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/pipeline"
)

// codec_bulk geometry. Both paths run on the same fields, 64^3 (1 MiB)
// except for SPERR (see sperrEdge): a direct Codec call, and the CPL1
// container, which splits the field into nproc = 2 slabs and compresses
// them on 2 workers. The same bytes go down both paths, so their MB/s
// compare one to one and the pair carries ROADMAP item 3's question. (The
// issue asked for 128^3 fields through CPL1; SPERR needs 3 s per pass over
// one, which the contract's time cap cannot afford, and operations that
// long cannot be timed steadily on this box.)
var bulkBounds = []float64{1e-3, 1e-2}

// bulkReps is how many fields each (codec, path) class visits per bound per
// cycle: the fast codecs repeat more so that every class has timed work in
// the same range. compress_mbps is a geometric mean over classes, so the
// slow classes do not outweigh the fast ones.
var bulkReps = map[string][2]int{ // direct, CPL1
	"szx":   {4, 4},
	"zfp":   {1, 1},
	"sz3":   {1, 1},
	"sperr": {2, 2},
}

type bulkOp struct {
	codec  string
	stream bool // CPL1 container instead of a direct codec call
	in     *input
	rel    float64
}

func (o bulkOp) path() string {
	if o.stream {
		return "cpl1"
	}
	return "direct"
}

func (o bulkOp) class() string { return o.codec + "/" + o.path() }

func (o bulkOp) String() string { return fmt.Sprintf("%s %s rel=%g", o.class(), o.in.spec, o.rel) }

type bulkState struct {
	codecs map[string]compressor.Codec
	pipes  map[string]*pipeline.Codec
	ops    []bulkOp
}

// bulkOpList builds one cycle: each class walks round the fields in steps
// of five (coprime to their number, so even a class with one operation per
// bound meets different datasets), the second bound continuing where the
// first stopped. The pairing is the same for every seed; the seed picks
// time steps and order.
func bulkOpList(seed uint64, inputs, small []*input) []bulkOp {
	var ops []bulkOp
	next := 0
	for _, c := range codecs.Names {
		pool := inputs
		if c == "sperr" {
			pool = small
		}
		for p := 0; p < 2; p++ {
			for _, rel := range bulkBounds {
				for i := 0; i < bulkReps[c][p]; i++ {
					ops = append(ops, bulkOp{c, p == 1, pool[(5*next)%len(pool)], rel})
					next++
				}
			}
		}
	}
	rng := seeded(seed, streamOps)
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func bulkSetup(e *env) (*bulkState, error) {
	specs := heldOutSpecs(seeded(e.seed, streamFields), 64, 64, 64)
	inputs, err := generateInputs(specs, e.nproc, false)
	if err != nil {
		return nil, err
	}
	st := &bulkState{pipes: make(map[string]*pipeline.Codec)}
	if st.codecs, err = codecSet(codecs.Names); err != nil {
		return nil, err
	}
	for name, c := range st.codecs {
		st.pipes[name] = pipeline.New(c, pipeline.Options{Workers: e.nproc, Blocks: e.nproc})
	}
	small, err := generateInputs(resized(specs, sperrEdge), e.nproc, false)
	if err != nil {
		return nil, err
	}
	st.ops = bulkOpList(e.seed, inputs, small)
	// Warm-up: one round trip per class.
	seen := make(map[string]bool)
	for _, op := range st.ops {
		if seen[op.class()] {
			continue
		}
		seen[op.class()] = true
		stream, err := st.compress(op)
		if err == nil {
			_, err = st.decompress(op, stream)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", op, err)
		}
	}
	return st, nil
}

func (st *bulkState) compress(op bulkOp) ([]byte, error) {
	eb := compressor.AbsBound(op.in.f, op.rel)
	if !op.stream {
		return st.codecs[op.codec].Compress(op.in.f, eb)
	}
	var buf bytes.Buffer
	buf.Grow(op.in.f.SizeBytes() / 4)
	if err := st.pipes[op.codec].CompressStream(&buf, op.in.f, eb); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (st *bulkState) decompress(op bulkOp, stream []byte) (*field.Field, error) {
	if !op.stream {
		return st.codecs[op.codec].Decompress(stream)
	}
	return st.pipes[op.codec].DecompressStream(bytes.NewReader(stream))
}

// spanName is the layer a traced bulk operation is attributed to.
func (o bulkOp) spanName(dir string) string {
	if o.stream {
		return "pipeline." + o.codec + "." + dir
	}
	return o.codec + "." + dir
}

// bulkOutcome is one verified round trip.
type bulkOutcome struct {
	compress, decompress time.Duration
	ratio                float64
}

// exec compresses, decompresses and checks one field; with a tracer each
// direction is a root span of the layer it belongs to.
func (st *bulkState) exec(e *env, tr *tracer, i int, op bulkOp) (bulkOutcome, error) {
	f := op.in.f
	var out bulkOutcome
	var stream []byte
	var got *field.Field
	var err error
	if tr != nil {
		out.compress = tr.codec(op.spanName("compress"), 0, i, f.SizeBytes(), func() int {
			stream, err = st.compress(op)
			return len(stream)
		})
	} else {
		t0 := time.Now()
		stream, err = st.compress(op)
		out.compress = time.Since(t0)
	}
	if err != nil {
		return out, fmt.Errorf("compress: %w", err)
	}
	out.ratio = compressor.Ratio(f, stream)
	if tr != nil {
		out.decompress = tr.codec(op.spanName("decompress"), 0, i, f.SizeBytes(), func() int {
			got, err = st.decompress(op, stream)
			return len(stream)
		})
	} else {
		t0 := time.Now()
		got, err = st.decompress(op, stream)
		out.decompress = time.Since(t0)
	}
	if err != nil {
		return out, fmt.Errorf("decompress: %w", err)
	}
	return out, e.checkField(f, got, compressor.AbsBound(f, op.rel))
}

// validate runs every class at every bound on every validation field, once,
// and returns the achieved ratios in a fixed order.
func (st *bulkState) validate(e *env, res *result) ([]float64, error) {
	pools, err := validationPools(e.nproc)
	if err != nil {
		return nil, err
	}
	var ops []bulkOp
	for _, c := range codecs.Names {
		for p := 0; p < 2; p++ {
			for _, rel := range bulkBounds {
				for _, in := range pools[edgeFor(c)] {
					ops = append(ops, bulkOp{c, p == 1, in, rel})
				}
			}
		}
	}
	outs := make([]bulkOutcome, len(ops))
	errs := make([]error, len(ops))
	// One operation at a time: the container path already uses every core.
	for i, op := range ops {
		outs[i], errs[i] = st.exec(e, nil, i, op)
	}
	var ratios []float64
	for i, op := range ops {
		res.Attempted += 2
		if errs[i] != nil {
			res.fail("validation %s: %v", op, errs[i])
			res.fail("validation %s: other half of the round trip", op)
			continue
		}
		ratios = append(ratios, outs[i].ratio)
	}
	return ratios, nil
}

// runBulk times the codec kernels and the CPL1 container in both
// directions; no model, search or HTTP code runs.
func runBulk(e *env) (*result, error) {
	st, setups, err := repeatSetup(e, func() (*bulkState, error) { return bulkSetup(e) },
		func(*bulkState) error { return nil })
	if err != nil {
		return nil, err
	}
	res := &result{Workload: wlBulk, Metrics: make(map[string]float64)}
	res.OpHash = hashOps(st.ops)

	n := len(st.ops)
	comp, dec := newOpTimes(n), newOpTimes(n)
	first := make([]float64, n)
	var okLat []float64
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	start := time.Now()
	for time.Since(start).Seconds() < e.seconds || res.Cycles == 0 {
		var cycleTr *tracer
		if e.trace && res.Cycles%2 == 1 {
			cycleTr = tr
		}
		for i, op := range st.ops {
			res.Attempted += 2 // one compress, one decompress
			out, err := st.exec(e, cycleTr, i, op)
			if cycleTr == nil {
				comp.add(i, out.compress)
				dec.add(i, out.decompress)
			}
			if err == nil && res.Cycles > 0 && out.ratio != first[i] { //carol:allow floateq the same input must give the bit-identical ratio
				err = fmt.Errorf("ratio %g differs from first cycle's %g", out.ratio, first[i])
			}
			if err != nil {
				// A stream that is wrong or cannot be read back fails both
				// halves of the round trip.
				res.fail("%s: %v", op, err)
				res.fail("%s: other half of the round trip", op)
				continue
			}
			if res.Cycles == 0 {
				first[i] = out.ratio
			}
			okLat = append(okLat, out.compress.Seconds(), out.decompress.Seconds())
			e.ref.tick()
		}
		res.Cycles++
	}
	slowdown := e.ref.slowdown(start, time.Now())
	timed := res.Attempted
	ratios, err := st.validate(e, res)
	if err != nil {
		return nil, err
	}

	if e.trace {
		res.spans = tr.snapshot()
		m := res.Metrics
		codecLayerMetrics(m, indexSpans(res.spans))
		roundTrip := newOpTimes(n)
		var roots []string
		for i, op := range st.ops {
			for c := range comp[i] {
				roundTrip[i] = append(roundTrip[i], comp[i][c]+dec[i][c])
			}
			roots = append(roots, op.spanName("compress"), op.spanName("decompress"))
		}
		harnessMetrics(m, res, roundTrip, roots...)
		return res, nil
	}

	m := res.Metrics
	setups.report(m)
	cBytes, cSecs, dSecs := map[string]int{}, map[string]float64{}, map[string]float64{}
	var bytes int
	var secs float64
	for i, op := range st.ops {
		b := op.in.f.SizeBytes() * len(comp[i])
		bytes += 2 * b
		secs += comp.total(i) + dec.total(i)
		cBytes[op.class()] += b
		cSecs[op.class()] += comp.total(i)
		dSecs[op.class()] += dec.total(i)
	}
	m["goodput_mbps"] = mbps(bytes, secs)
	m["compress_mbps"] = geomean(classMbps(cBytes, cSecs))
	m["decompress_mbps"] = geomean(classMbps(cBytes, dSecs))
	m["achieved_ratio_geomean"] = geomean(ratios)
	m["ratio_miss_p50"] = notApplicable
	m["compressor_runs_per_op"] = 1
	if err := latencySummary(res, okLat, timed, slowdown); err != nil {
		return nil, err
	}
	atReferenceSpeed(m, slowdown, "goodput_mbps", "compress_mbps", "decompress_mbps")
	return res, nil
}
