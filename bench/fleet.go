package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"carol/internal/chunked"
	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/features"
	"carol/internal/field"
	"carol/internal/model"
	"carol/internal/pipeline"
	"carol/internal/ring"
	"carol/internal/safedec"
	"carol/internal/selector"
)

// fleet_mixed geometry and mix. One cycle is 40 requests; the class counts
// per cycle are fixed (55/15/8/8/10/4 % of 40) so every seed offers the same
// load. The seed draws the small fields (zipf 1.1 over their pool) and the
// order; the large fields are dealt round-robin, because the latency of a
// fan-out depends on its field and the tail percentile sits among them.
const (
	fleetSmallPool = 32 // 16^3 fields (16 KiB): whole-routed
	fleetLargePool = 8  // 64^3 fields (1 MiB): at the gate's default chunk threshold, so fanned out
	fleetSmallEdge = 16
	fleetRel       = 1e-3
	// fleetRate is the committed open-loop rate, requests per second: 15 % of
	// the closed-loop capacity -sweep measured on this 2-core box. With only
	// nproc = 2 connections the generator itself falls behind well before
	// the fleet does (see README.md): at 60 req/s its lateness already
	// passed the 5 ms health limit in one run out of five.
	fleetRate = 40.0
	// lateLimitMs is how late, at p95, the generator may send its requests
	// before an open-loop window is invalid (see windowAttempts).
	lateLimitMs = 5.0
)

var fleetMix = []struct {
	class string
	n     int
}{
	{"small_rel", 22},
	{"fanout_rel", 6},
	{"stream", 3},
	{"auto", 3},
	{"decompress", 4},
	{"predict", 2},
}

type fleetOp struct {
	class string
	codec string // "" for auto and predict
	in    *input
	path  string // path and query sent to the gate
	body  []byte
	// eb is the absolute bound a decompress operation's container was
	// written under; cch marks that container as a CCH1 fan-out container.
	eb  float64
	cch bool
}

func (o fleetOp) String() string { return o.class + " " + o.path + " " + o.in.spec.String() }

// isCompress reports whether the operation produces a compressed stream.
func (o fleetOp) isCompress() bool {
	return o.class != "decompress" && o.class != "predict"
}

type fleetState struct {
	dir    string
	shards []*proc
	gate   *proc
	client *http.Client
	models string
	small  []*input
	large  []*input
	ops    []fleetOp
	codecs map[string]compressor.Codec
}

func (st *fleetState) procs() []*proc { return append([]*proc{st.gate}, st.shards...) }

func (st *fleetState) teardown() error {
	// The gate first, so it never sees its shards disappear.
	err := stopAll(st.procs()...)
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	return err
}

// newFleetOp builds one request of a class on a field.
func (st *fleetState) newFleetOp(class, codec string, in *input, key string) (fleetOp, error) {
	op := fleetOp{class: class, codec: codec, in: in, body: in.raw}
	dims := in.spec.dims()
	switch class {
	case "small_rel", "fanout_rel":
		op.path = fmt.Sprintf("/v1/compress?codec=%s&rel=%g&dims=%s&key=%s", codec, fleetRel, dims, key)
	case "stream":
		op.path = fmt.Sprintf("/v1/compress?codec=%s&rel=%g&stream=1&dims=%s&key=%s", codec, fleetRel, dims, key)
	case "auto":
		op.path = fmt.Sprintf("/v1/compress?mode=auto&rel=%g&dims=%s&key=%s", fleetRel, dims, key)
	case "predict":
		op.path = fmt.Sprintf("/v1/predict?model=szx&ratio=10,50&dims=%s&key=%s", dims, key)
	case "decompress":
		// Containers are produced here, in set-up: a single codec stream of a
		// small field, or the CCH1 container a fan-out of a large one gives.
		op.path = fmt.Sprintf("/v1/decompress?codec=%s&key=%s", codec, key)
		op.eb = compressor.AbsBound(in.f, fleetRel)
		op.cch = in.spec.Nx != fleetSmallEdge
		var err error
		if op.cch {
			op.body, err = chunked.Compress(st.codecs[codec], in.f, op.eb, chunked.Options{Chunks: len(st.shards)})
		} else {
			op.body, err = st.codecs[codec].Compress(in.f, op.eb)
		}
		if err != nil {
			return op, fmt.Errorf("container for %s: %w", in.spec, err)
		}
	default:
		return op, fmt.Errorf("unknown class %q", class)
	}
	return op, nil
}

// fleetOpList builds one cycle of traffic.
func (st *fleetState) fleetOpList(seed uint64) ([]fleetOp, error) {
	rng := seeded(seed, streamOps)
	zs := newZipf(len(st.small), 1.1)
	nextLarge := 0
	pick := func(largeField bool) (*input, string) {
		if largeField {
			k := nextLarge % len(st.large)
			nextLarge++
			return st.large[k], "l" + strconv.Itoa(k)
		}
		k := zs.draw(rng)
		return st.small[k], "s" + strconv.Itoa(k)
	}
	var ops []fleetOp
	for _, m := range fleetMix {
		for j := 0; j < m.n; j++ {
			var codec string
			largeField := false
			switch m.class {
			case "small_rel":
				codec = []string{"szx", "zfp"}[j%2]
			case "fanout_rel":
				// Two SZx and four SZ3 fan-outs: SZ3's are the slowest tenth of
				// the cycle, so the 95th percentile falls in the middle of
				// them. With three of each it fell on their edge and swung by
				// 23 % from seed to seed.
				codec, largeField = []string{"szx", "sz3", "sz3"}[j%3], true
			case "stream":
				codec, largeField = []string{"szx", "zfp"}[j%2], true
			case "decompress":
				codec, largeField = "szx", j%2 == 1
			}
			in, key := pick(largeField)
			op, err := st.newFleetOp(m.class, codec, in, key)
			if err != nil {
				return nil, err
			}
			ops = append(ops, op)
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}

func fleetSetup(e *env) (*fleetState, error) {
	bins, err := e.binaries()
	if err != nil {
		return nil, err
	}
	dir, err := scratchDir("fleet")
	if err != nil {
		return nil, err
	}
	st := &fleetState{dir: dir, client: newClient(e.nproc), models: filepath.Join(dir, "models")}
	if st.codecs, err = codecSet(codecs.Names); err != nil {
		return nil, err
	}
	if err := publishModels(bins, st.models, servedCodecs); err != nil {
		return nil, err
	}
	var urls []string
	for i := 0; i < 2; i++ {
		// Default flags plus the address, the registry and a fixed seed.
		s, err := startServer(bins, "carolserve", "-model-dir", st.models, "-selector-seed", "1")
		if err != nil {
			return nil, err
		}
		st.shards = append(st.shards, s)
		urls = append(urls, "http://"+s.addr)
	}
	if st.gate, err = startServer(bins, "carolgate", "-shards", strings.Join(urls, ","), "-selector-seed", "1"); err != nil {
		return nil, err
	}
	// The pools: the held-out list cycled through twice at 16^3 for the small
	// pool (the second pass draws fresh time steps), its first entries of
	// each dataset at 64^3 for the large one.
	rng := seeded(e.seed, streamFields)
	specs := append(heldOutSpecs(rng, fleetSmallEdge, fleetSmallEdge, fleetSmallEdge),
		heldOutSpecs(rng, fleetSmallEdge, fleetSmallEdge, fleetSmallEdge)...)[:fleetSmallPool]
	for i, s := range heldOutSpecs(rng, 64, 64, 64) {
		if i%2 == 0 {
			specs = append(specs, s)
		}
	}
	inputs, err := generateInputs(specs, e.nproc, true)
	if err != nil {
		return nil, err
	}
	st.small, st.large = inputs[:fleetSmallPool], inputs[fleetSmallPool:]
	if len(st.large) != fleetLargePool {
		return nil, fmt.Errorf("large pool has %d fields, want %d", len(st.large), fleetLargePool)
	}
	if st.ops, err = st.fleetOpList(e.seed); err != nil {
		return nil, err
	}
	// Warm-up: one request of every class.
	seen := make(map[string]bool)
	for _, op := range st.ops {
		if seen[op.class+op.codec] {
			continue
		}
		seen[op.class+op.codec] = true
		if r := post(st.client, st.gate.url(op.path), op.body); r.err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", op, r.err)
		}
	}
	return st, nil
}

// verify checks one answer: the stream decodes with the codec that wrote
// it to the request's dims within the bound that was asked for; a
// decompressed field matches its original within the container's bound; a
// prediction names a positive bound per requested ratio. It returns the
// achieved ratio of a compress answer.
func (st *fleetState) verify(e *env, op fleetOp, r reply) (ratio float64, err error) {
	if r.err != nil {
		return 0, r.err
	}
	f := op.in.f
	switch op.class {
	case "predict":
		var p struct {
			ErrorBounds []float64 `json:"error_bounds"`
		}
		if err := json.Unmarshal(r.body, &p); err != nil {
			return 0, fmt.Errorf("predict answer: %w", err)
		}
		if len(p.ErrorBounds) != 2 || !(p.ErrorBounds[0] > 0) || !(p.ErrorBounds[1] > 0) {
			return 0, fmt.Errorf("predict answer %v: want two positive bounds", p.ErrorBounds)
		}
		return 0, nil
	case "decompress":
		s := op.in.spec
		if want := s.dims(); r.header.Get("X-Carol-Dims") != want {
			return 0, fmt.Errorf("dims %q, want %q", r.header.Get("X-Carol-Dims"), want)
		}
		got, err := field.ReadRaw("answer", s.Nx, s.Ny, s.Nz, bytes.NewReader(r.body))
		if err != nil {
			return 0, err
		}
		return 0, e.checkField(f, got, op.eb)
	}
	codec := op.codec
	if op.class == "auto" {
		codec = r.header.Get("X-Carol-Codec-Chosen")
	}
	c, err := codecs.ByName(codec)
	if err != nil {
		return 0, fmt.Errorf("codec of the answer: %w", err)
	}
	var got *field.Field
	switch op.class {
	case "fanout_rel":
		if want := strconv.Itoa(len(st.shards)); r.header.Get("X-Carol-Fanout-Chunks") != want {
			return 0, fmt.Errorf("fan-out over %q chunks, want %s", r.header.Get("X-Carol-Fanout-Chunks"), want)
		}
		got, err = chunked.Decompress(c, r.body, chunked.Options{})
	case "stream":
		got, err = pipeline.New(c, pipeline.Options{}).DecompressStream(bytes.NewReader(r.body))
	default:
		got, err = c.Decompress(r.body)
	}
	if err != nil {
		return 0, fmt.Errorf("decode: %w", err)
	}
	if err := e.checkField(f, got, compressor.AbsBound(f, fleetRel)); err != nil {
		return 0, err
	}
	return compressor.Ratio(f, r.body), nil
}

// runFleet drives carolgate over two carolserve shards with a mixed,
// open-loop load at a fixed rate.
func runFleet(e *env) (*result, error) {
	st, setups, err := repeatSetup(e, func() (*fleetState, error) { return fleetSetup(e) },
		(*fleetState).teardown)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: wlFleet, Metrics: make(map[string]float64)}
	err = fleetMeasure(e, st, res, setups, fleetRate)
	if terr := st.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// fleetChunk is how many requests go out between two samples of the host
// reference: half a cycle, half a second at the committed rate. The schedule
// stops for a sample (the unit would take a core from the fleet, and a
// processor from the generator, if it ran beside the requests), so each
// chunk is an open loop of its own that starts on an idle fleet.
const fleetChunk = 20

// fleetWindow sends cycles whole cycles of the operation list, open loop at
// rate, and returns the replies and timings indexed [cycle*len(ops)+op] and
// the time the chunks took, in seconds: each its share of the schedule, or
// longer if its last answer came after that.
func fleetWindow(e *env, st *fleetState, rate float64, cycles int) ([]reply, []timing, float64) {
	n := len(st.ops)
	replies := make([]reply, cycles*n)
	timings := make([]timing, 0, cycles*n)
	var seconds float64
	for first := 0; first < cycles*n; first += fleetChunk {
		e.ref.sample()
		count := min(fleetChunk, cycles*n-first)
		start := time.Now()
		timings = append(timings, runOpenLoop(wallClock{}, start, rate, count, e.nproc, func(i int) {
			op := st.ops[(first+i)%n]
			replies[first+i] = post(st.client, st.gate.url(op.path), op.body)
		})...)
		seconds += max(time.Since(start).Seconds(), float64(count)/rate)
	}
	return replies, timings, seconds
}

// window is one valid open-loop window of whole cycles.
type window struct {
	replies   []reply
	timings   []timing
	seconds   float64 // of the chunks, without the pauses between them
	slowdown  float64 // of the host while it ran (hostref.go)
	lateP95   float64 // generator lateness, milliseconds
	discarded int     // invalid windows thrown away before this one
}

// windowAttempts is how many open-loop windows a run measures before it
// gives up. A window in which the generator sent its requests more than
// lateLimitMs late at p95 did not offer the fleet the schedule: it is
// invalid, thrown away whole (never repaired) and measured again, and the
// count is reported as bench.discarded_windows. On this box a slow spell of
// the host invalidates about one 15 s window in 40, which the 23 runs of the
// benchmark's driver would meet nearly every other time; a fleet that
// cannot keep the schedule fails every attempt, and the run with them.
const windowAttempts = 3

// validWindow measures open-loop windows of cycles cycles until one is
// valid.
func (st *fleetState) validWindow(e *env, rate float64, cycles int) (*window, error) {
	w := &window{}
	for {
		start := time.Now()
		w.replies, w.timings, w.seconds = fleetWindow(e, st, rate, cycles)
		w.slowdown = e.ref.slowdown(start, time.Now())
		late := make([]float64, len(w.timings))
		for i, t := range w.timings {
			late[i] = 1e3 * t.lateness().Seconds()
		}
		if w.lateP95 = percentile(late, 95); w.lateP95 <= lateLimitMs {
			return w, nil
		}
		w.discarded++
		e.logf("   window %d discarded: the generator ran %.1f ms late at p95 (limit %g ms), so the fleet was not offered %g req/s",
			w.discarded, w.lateP95, lateLimitMs, rate)
		if w.discarded == windowAttempts {
			return nil, fmt.Errorf("invalid open-loop run: the generator fell behind in %d windows out of %d", w.discarded, windowAttempts)
		}
	}
}

func fleetMeasure(e *env, st *fleetState, res *result, setups setupTimes, rate float64) error {
	res.OpHash = hashOps(st.ops)
	n := len(st.ops)
	// The untraced run spends the whole time in one open-loop window; the
	// traced one a third of it (for the generator's lateness), the rest on
	// requests sent one at a time.
	openSeconds := e.seconds
	if e.trace {
		openSeconds /= 3
	}
	cycles := int(openSeconds*rate/float64(n) + 0.5)
	if cycles < 1 {
		cycles = 1
	}
	w, err := st.validWindow(e, rate, cycles)
	if err != nil {
		return err
	}
	res.Cycles = cycles

	lat := newOpTimes(n)
	var okLat []float64
	var okBytes int
	first := make([][]byte, n)
	// account verifies one cycle's replies after they were all received.
	account := func(replies []reply) {
		for k, r := range replies {
			res.Attempted++
			op := st.ops[k]
			// A compress answer identical to one already verified needs no
			// second decode (auto answers change as its bandit learns).
			if r.err == nil && first[k] != nil && bytes.Equal(r.body, first[k]) {
				okBytes += op.in.f.SizeBytes()
				continue
			}
			if _, err := st.verify(e, op, r); err != nil {
				res.fail("%s: %v", op, err)
				continue
			}
			okBytes += op.in.f.SizeBytes()
			if op.isCompress() && first[k] == nil {
				first[k] = r.body
			}
		}
	}
	// Bodies were retained; verify them now, outside the window.
	for c := 0; c < cycles; c++ {
		account(w.replies[c*n : (c+1)*n])
	}

	var tr *tracer
	if e.trace {
		// Alternate two kinds of cycle, both one request at a time so that
		// spans do not overlap: untraced (the reference for the trace
		// overhead) and traced.
		tr = newTracer()
		rp, err := st.newReplayer(tr)
		if err != nil {
			return err
		}
		start := time.Now()
		for serial := 0; time.Since(start).Seconds() < e.seconds-openSeconds || serial < 2; serial++ {
			if serial%2 == 0 {
				replies := make([]reply, n)
				for k, op := range st.ops {
					replies[k] = post(st.client, st.gate.url(op.path), op.body)
					lat.add(k, replies[k].latency)
				}
				account(replies)
			} else {
				account(st.tracedCycle(tr, rp))
			}
			res.Cycles++
		}
	} else {
		for i, t := range w.timings {
			lat.add(i%n, t.latency())
			if w.replies[i].err == nil {
				okLat = append(okLat, t.latency().Seconds())
			}
		}
	}
	timed := res.Attempted

	// The deterministic ratio comes from the fixed validation set, sent
	// through the static-codec compress classes one request at a time.
	ratios, err := st.validate(e, res)
	if err != nil {
		return err
	}

	res.Metrics["bench.late_ms_p95"] = w.lateP95
	res.Metrics["bench.discarded_windows"] = float64(w.discarded)
	if e.trace {
		res.spans = tr.snapshot()
		st.layerMetrics(res, lat)
		return nil
	}

	m := res.Metrics
	setups.report(m)
	// In an open loop the schedule sets the goodput: it is the offered load
	// as long as the fleet keeps up.
	m["goodput_mbps"] = mbps(okBytes, w.seconds)
	// In an open loop a request's latency includes its wait behind whatever
	// was in flight when it fell due, and a handful of long waits would set
	// the mean of the 15-165 requests a kind of request has in the window.
	// Each kind (class, codec, field size) therefore counts with its median
	// latency over the whole window, and the two metrics are geometric means
	// over the kinds, so the small requests weigh as much as the large ones.
	kindLat := map[string][]float64{}
	kindBytes := map[string]int{}
	for k, op := range st.ops {
		kind := op.class + "/" + op.codec + "/" + op.in.spec.dims()
		kindLat[kind] = append(kindLat[kind], lat[k]...)
		kindBytes[kind] = op.in.f.SizeBytes()
	}
	var cMbps, dMbps []float64
	for _, kind := range sortedKeys(kindLat) {
		v := mbps(kindBytes[kind], median(kindLat[kind]))
		switch {
		case strings.HasPrefix(kind, "decompress/"):
			dMbps = append(dMbps, v)
		case !strings.HasPrefix(kind, "predict/"):
			cMbps = append(cMbps, v)
		}
	}
	m["compress_mbps"] = geomean(cMbps)
	m["decompress_mbps"] = geomean(dMbps)
	m["achieved_ratio_geomean"] = geomean(ratios)
	m["ratio_miss_p50"] = notApplicable
	// No request of this mix searches: every compress runs its codec once.
	m["compressor_runs_per_op"] = 1
	// Not goodput_mbps: the schedule sets it, not the host's speed.
	atReferenceSpeed(m, w.slowdown, "compress_mbps", "decompress_mbps")
	return latencySummary(res, okLat, timed, w.slowdown)
}

// validate sends every validation field through small_rel, fanout_rel and
// stream with each of the class's codecs, verifies the answers and returns
// the achieved ratios in a fixed order.
func (st *fleetState) validate(e *env, res *result) ([]float64, error) {
	small, err := generateInputs(validationSpecs(fleetSmallEdge), e.nproc, true)
	if err != nil {
		return nil, err
	}
	large, err := generateInputs(validationSpecs(64), e.nproc, true)
	if err != nil {
		return nil, err
	}
	var ratios []float64
	for _, v := range []struct {
		class  string
		codecs []string
		pool   []*input
	}{
		{"small_rel", []string{"szx", "zfp"}, small},
		{"fanout_rel", []string{"szx", "sz3"}, large},
		{"stream", []string{"szx", "zfp"}, large},
	} {
		for _, codec := range v.codecs {
			for i, in := range v.pool {
				op, err := st.newFleetOp(v.class, codec, in, "v"+strconv.Itoa(i))
				if err != nil {
					return nil, err
				}
				res.Attempted++
				ratio, err := st.verify(e, op, post(st.client, st.gate.url(op.path), op.body))
				if err != nil {
					res.fail("validation %s: %v", op, err)
					continue
				}
				ratios = append(ratios, ratio)
			}
		}
	}
	return ratios, nil
}

// tracedEstimator records every surrogate estimate the selector asks for.
type tracedEstimator struct {
	compressor.Estimator
	tr         *tracer
	parent, op *int
}

func (t tracedEstimator) EstimateRatio(f *field.Field, eb float64) (ratio float64, err error) {
	t.tr.run("secre.estimate."+t.Name(), *t.parent, *t.op, f.SizeBytes(), func() {
		ratio, err = t.Estimator.EstimateRatio(f, eb)
	})
	return ratio, err
}

// fleetReplayer holds what the in-process replay of fleet requests needs:
// the layers' own objects, built the way the servers build them.
type fleetReplayer struct {
	ring     *ring.Ring
	selector *selector.Selector
	artifact *model.Artifact
	// selParent and selOp tell the traced estimators which span and
	// operation the current Select call belongs to.
	selParent, selOp int
}

func (st *fleetState) newReplayer(tr *tracer) (*fleetReplayer, error) {
	rp := &fleetReplayer{}
	var urls []string
	for _, s := range st.shards {
		urls = append(urls, "http://"+s.addr)
	}
	var err error
	if rp.ring, err = ring.New(urls, ring.Options{}); err != nil {
		return nil, err
	}
	ests := make(map[string]compressor.Estimator)
	for _, name := range codecs.ExtendedNames {
		est, err := codecs.SurrogateByName(name)
		if err != nil {
			return nil, err
		}
		ests[name] = tracedEstimator{est, tr, &rp.selParent, &rp.selOp}
	}
	if rp.selector, err = selector.New(selector.Config{Seed: 1, Estimators: ests}); err != nil {
		return nil, err
	}
	if rp.artifact, _, err = loadArtifact(st.models, "szx"); err != nil {
		return nil, err
	}
	return rp, nil
}

// tracedCycle sends each request of the cycle on its own (span
// carolgate.request) and replays it in process through the layer calls the
// gate and the shards make for its class.
func (st *fleetState) tracedCycle(tr *tracer, rp *fleetReplayer) []reply {
	replies := make([]reply, len(st.ops))
	for i, op := range st.ops {
		root := tr.begin("carolgate.request", op.class, 0, i, len(op.body))
		r := post(st.client, st.gate.url(op.path), op.body)
		tr.end(root)
		replies[i] = r
		if r.err != nil {
			continue
		}
		for _, h := range []string{"X-Carol-Trace", "X-Carol-Fanout-Chunks", "X-Carol-Codec-Chosen", "X-Carol-Achieved-Ratio"} {
			tr.note(root, h, r.header.Get(h))
		}
		replay := tr.begin("replay", op.class, root, i, 0)
		if rerr := st.replay(tr, rp, replay, i, op); rerr != nil {
			tr.note(replay, "error", rerr.Error())
		}
		tr.end(replay)
	}
	return replies
}

// replay makes, in process and one after the other, the layer calls the
// fleet makes for one request. Slabs that the fleet handles in parallel are
// replayed in sequence: the sum is the work, not the critical path.
func (st *fleetState) replay(tr *tracer, rp *fleetReplayer, parent, i int, op fleetOp) error {
	s := op.in.spec
	readRaw := func(raw []byte, nx, ny, nz int) (f *field.Field, err error) {
		tr.run("field.read_raw", parent, i, len(raw), func() {
			f, err = field.ReadRaw("replay", nx, ny, nz, bytes.NewReader(raw))
		})
		return f, err
	}
	writeRaw := func(f *field.Field) (raw []byte, err error) {
		tr.run("field.write_raw", parent, i, f.SizeBytes(), func() {
			var buf bytes.Buffer
			buf.Grow(f.SizeBytes())
			err = f.WriteRaw(&buf)
			raw = buf.Bytes()
		})
		return raw, err
	}
	compress := func(codec string, f *field.Field, eb float64) (stream []byte, err error) {
		// Through the registry, as the servers do: mode=auto may pick a codec
		// outside the evaluation's four.
		c, err := codecs.ByName(codec)
		if err != nil {
			return nil, err
		}
		tr.codec(codec+".compress", parent, i, f.SizeBytes(), func() int {
			stream, err = c.Compress(f, eb)
			return len(stream)
		})
		return stream, err
	}
	decompress := func(codec string, stream []byte, bytes int) (f *field.Field, err error) {
		tr.codec(codec+".decompress", parent, i, bytes, func() int {
			f, err = st.codecs[codec].Decompress(stream)
			return len(stream)
		})
		return f, err
	}
	// A shard's rel=/abs= compress: parse, compress, and (with the default
	// -track-estimator-error) one surrogate estimate beside it.
	shardCompress := func(codec string, raw []byte, nx, ny, nz int, eb float64) ([]byte, error) {
		f, err := readRaw(raw, nx, ny, nz)
		if err != nil {
			return nil, err
		}
		if eb == 0 { //carol:allow floateq 0 means "rel= request": the shard scales by its own field
			eb = compressor.AbsBound(f, fleetRel)
		}
		stream, err := compress(codec, f, eb)
		if err != nil {
			return nil, err
		}
		est, err := codecs.SurrogateByName(codec)
		if err != nil {
			return nil, err
		}
		tr.run("secre.estimate."+codec, parent, i, f.SizeBytes(), func() { _, err = est.EstimateRatio(f, eb) })
		return stream, err
	}
	lookup := func(key string) {
		tr.run("ring.lookup", parent, i, 0, func() { rp.ring.Lookup(key, rp.ring.Len()) })
	}

	switch op.class {
	case "small_rel":
		lookup(op.path)
		_, err := shardCompress(op.codec, op.body, s.Nx, s.Ny, s.Nz, 0)
		return err
	case "fanout_rel":
		f, err := readRaw(op.body, s.Nx, s.Ny, s.Nz)
		if err != nil {
			return err
		}
		eb := compressor.AbsBound(f, fleetRel)
		slabs := pipeline.SplitField(f, len(st.shards))
		lookup(op.path)
		streams := make([][]byte, len(slabs))
		for k, slab := range slabs {
			raw, err := writeRaw(slab)
			if err != nil {
				return err
			}
			if streams[k], err = shardCompress(op.codec, raw, slab.Nx, slab.Ny, slab.Nz, eb); err != nil {
				return err
			}
		}
		tr.run("chunked.assemble", parent, i, f.SizeBytes(), func() { chunked.Assemble(s.Nx, s.Ny, s.Nz, streams) })
		return nil
	case "stream":
		lookup(op.path)
		f, err := readRaw(op.body, s.Nx, s.Ny, s.Nz)
		if err != nil {
			return err
		}
		tr.codec("pipeline."+op.codec+".compress", parent, i, f.SizeBytes(), func() int {
			var buf bytes.Buffer
			err = pipeline.New(st.codecs[op.codec], pipeline.Options{}).CompressStream(&buf, f, compressor.AbsBound(f, fleetRel))
			return buf.Len()
		})
		return err
	case "auto":
		lookup(op.path)
		f, err := readRaw(op.body, s.Nx, s.Ny, s.Nz)
		if err != nil {
			return err
		}
		eb := compressor.AbsBound(f, fleetRel)
		sel := tr.begin("selector.select", "", parent, i, f.SizeBytes())
		rp.selParent, rp.selOp = sel, i
		dec, err := rp.selector.Select(f, eb, 0)
		tr.end(sel)
		if err != nil {
			return err
		}
		stream, err := compress(dec.Codec, f, eb)
		if err != nil {
			return err
		}
		rp.selector.Observe(dec, compressor.Ratio(f, stream))
		return nil
	case "decompress":
		lookup(op.path)
		if !op.cch {
			f, err := decompress(op.codec, op.body, op.in.f.SizeBytes())
			if err != nil {
				return err
			}
			_, err = writeRaw(f)
			return err
		}
		var chunks [][]byte
		var err error
		tr.run("chunked.parse", parent, i, len(op.body), func() {
			_, _, _, chunks, err = chunked.Parse(op.body, safedec.Default())
		})
		if err != nil {
			return err
		}
		for _, chunk := range chunks {
			f, err := decompress(op.codec, chunk, op.in.f.SizeBytes()/len(chunks))
			if err != nil {
				return err
			}
			if _, err := writeRaw(f); err != nil {
				return err
			}
		}
		return nil
	case "predict":
		lookup(op.path)
		f, err := readRaw(op.body, s.Nx, s.Ny, s.Nz)
		if err != nil {
			return err
		}
		tr.run("core.predict_eb", parent, i, f.SizeBytes(), func() {
			_, err = rp.artifact.PredictErrorBounds(f, []float64{10, 50}, features.ParallelOptions{})
		})
		return err
	}
	return fmt.Errorf("no replay for class %q", op.class)
}

func (st *fleetState) layerMetrics(res *result, plain opTimes) {
	m := res.Metrics
	idx := indexSpans(res.spans)
	codecLayerMetrics(m, idx)
	m["field.read_raw_mbps"] = idx.get("field.read_raw").mbps()
	m["field.write_raw_mbps"] = idx.get("field.write_raw").mbps()
	m["chunked.assemble_mbps"] = idx.get("chunked.assemble").mbps()
	m["chunked.parse_mbps"] = idx.get("chunked.parse").mbps()
	m["ring.lookup_ns"] = 1e6 * idx.get("ring.lookup").p50ms()
	m["core.predict_eb_ms_p50"] = idx.get("core.predict_eb").p50ms()
	m["selector.select_ms_p50"] = idx.get("selector.select").p50ms()
	m["selector.self_ms_p50"] = selfP50ms(res.spans, "selector.select")
	for _, c := range codecs.Names {
		m["secre.estimate_ms_p50."+c] = idx.get("secre.estimate." + c).p50ms()
	}
	requestLayerMetrics(m, res.spans, "carolgate")
	var fanned, chunks, autos float64
	chosen := map[string]float64{}
	for _, s := range res.spans {
		if s.Name != "carolgate.request" {
			continue
		}
		if v, err := strconv.ParseFloat(s.Data["X-Carol-Fanout-Chunks"], 64); err == nil {
			fanned++
			chunks += v
		}
		if c := s.Data["X-Carol-Codec-Chosen"]; c != "" {
			autos++
			chosen[c]++
		}
	}
	if fanned > 0 {
		m["carolgate.fanout_chunks_per_op"] = chunks / fanned
	}
	for _, c := range codecs.Names {
		if autos > 0 {
			m["selector.chosen_share."+c] = chosen[c] / autos
		}
	}
	m["carolgate.rss_peak_mib"] = st.gate.rssPeakMiB()
	var shardRSS float64
	for _, s := range st.shards {
		if r := s.rssPeakMiB(); r > shardRSS {
			shardRSS = r
		}
	}
	m["carolserve.rss_peak_mib"] = shardRSS
	harnessMetrics(m, res, plain, "carolgate.request")
}
