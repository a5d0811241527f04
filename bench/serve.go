package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/fraz"
	"carol/internal/model"
	"carol/internal/registry"
	"carol/internal/safedec"
)

// servedCodecs are the codecs of the served workloads. SPERR is left out:
// one FRaZ search on it takes seconds; workloads 1 and 2 cover it.
var servedCodecs = []string{"szx", "zfp", "sz3"}

// serveOps is the per-cycle request count per codec: 60/20/20 by count, so
// the median latency sits in the middle of the SZx searches and the 95th
// percentile among SZ3's. (The issue's 40/40/20 puts the median on the
// boundary between the SZx and ZFP modes, where it swung by 20 % between
// identical runs.)
var serveOps = map[string]int{"szx": 15, "zfp": 5, "sz3": 5}

// decodePasses is how often the client-side decode of each answer is timed:
// 3 s of decoding. With 8 passes, half of that, decompress_mbps spread by
// 14 % between runs where the window's metrics spread by 4-9 %.
const decodePasses = 16

// serveTargets are the requested ratios (the first three of ratioTargets).
func serveTargets(codec string) []float64 { return ratioTargets[codec][:3] }

type serveOp struct {
	codec  string
	in     *input
	target float64
}

func (o serveOp) String() string { return fmt.Sprintf("%s %s ratio=%g", o.codec, o.in.spec, o.target) }

func (o serveOp) class() string { return "ratio_" + o.codec }

func (o serveOp) query() string {
	return fmt.Sprintf("/v1/compress?codec=%s&ratio=%g&dims=%s", o.codec, o.target, o.in.spec.dims())
}

// reply is what the client kept of one response.
type reply struct {
	header  http.Header
	body    []byte
	latency time.Duration
	err     error
}

// post sends body and reads the whole answer; latency covers both.
func post(client *http.Client, url string, body []byte) reply {
	start := time.Now()
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, latency: time.Since(start)}
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // a body that was only read; err is the read's
	r := reply{header: resp.Header, body: data, latency: time.Since(start), err: err}
	if err == nil && resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data[:min(len(data), 200)]))
	}
	return r
}

type serveState struct {
	dir    string
	srv    *proc
	client *http.Client
	ops    []serveOp
	loadMs float64 // traced runs: time to load one published artifact
}

func (st *serveState) teardown() error {
	err := st.srv.stop()
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	return err
}

// serveOpList pairs operation i of a codec with field i and its i-th
// target — the same pairing for every seed — and lets the seed pick the
// order (it has already picked the fields' time steps).
func serveOpList(seed uint64, inputs []*input) []serveOp {
	var ops []serveOp
	next := 0
	for _, c := range servedCodecs {
		targets := serveTargets(c)
		for i := 0; i < serveOps[c]; i++ {
			ops = append(ops, serveOp{c, inputs[(3*next)%len(inputs)], targets[i%len(targets)]})
			next++
		}
	}
	rng := seeded(seed, streamOps)
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func serveSetup(e *env) (*serveState, error) {
	bins, err := e.binaries()
	if err != nil {
		return nil, err
	}
	dir, err := scratchDir("serve")
	if err != nil {
		return nil, err
	}
	st := &serveState{dir: dir, client: newClient(e.nproc)}
	models := filepath.Join(dir, "models")
	if err := publishModels(bins, models, servedCodecs); err != nil {
		return nil, err
	}
	if e.trace {
		if _, st.loadMs, err = loadArtifact(models, servedCodecs[0]); err != nil {
			return nil, err
		}
	}
	// Default flags plus the address, the registry and a fixed selector seed.
	if st.srv, err = startServer(bins, "carolserve", "-model-dir", models, "-selector-seed", "1"); err != nil {
		return nil, err
	}
	specs := heldOutSpecs(seeded(e.seed, streamFields), 64, 64, 64)
	inputs, err := generateInputs(specs, e.nproc, true)
	if err != nil {
		return nil, err
	}
	st.ops = serveOpList(e.seed, inputs)
	seen := make(map[string]bool)
	for _, op := range st.ops {
		if seen[op.codec] {
			continue
		}
		seen[op.codec] = true
		if r := post(st.client, st.srv.url(op.query()), op.in.raw); r.err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", op, r.err)
		}
	}
	return st, nil
}

// loadArtifact reads and validates the newest published version of a model
// the way carolserve's warm load does, and returns how long that took in
// milliseconds.
func loadArtifact(dir, name string) (*model.Artifact, float64, error) {
	reg, err := registry.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	v, err := reg.Latest(name)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	art, err := reg.Load(v, safedec.Default())
	if err != nil {
		return nil, 0, err
	}
	if err := art.ServingCheck(); err != nil {
		return nil, 0, err
	}
	return art, 1e3 * time.Since(start).Seconds(), nil
}

// ratioOutcome is what a verified ratio= response tells.
type ratioOutcome struct {
	achieved float64
	runs     float64
	decode   time.Duration
}

// verifyRatioReply decodes the stream the server sent, checks it against
// the bound in its header and the ratio the server claims, and reads the
// compressor-run count.
func verifyRatioReply(e *env, codec compressor.Codec, op serveOp, r reply) (ratioOutcome, error) {
	var out ratioOutcome
	if r.err != nil {
		return out, r.err
	}
	eb, err := appliedBound(op.codec, r.body)
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	got, err := codec.Decompress(r.body)
	out.decode = time.Since(t0)
	if err != nil {
		return out, fmt.Errorf("decode: %w", err)
	}
	if err := e.checkField(op.in.f, got, eb); err != nil {
		return out, err
	}
	out.achieved = compressor.Ratio(op.in.f, r.body)
	claimed, err := strconv.ParseFloat(r.header.Get("X-Carol-Achieved-Ratio"), 64)
	if err != nil || math.Abs(claimed-out.achieved) > 1e-3*out.achieved {
		return out, fmt.Errorf("server claims ratio %q, body has %g", r.header.Get("X-Carol-Achieved-Ratio"), out.achieved)
	}
	if out.runs, err = strconv.ParseFloat(r.header.Get("X-Carol-Compressor-Runs"), 64); err != nil || out.runs < 1 {
		return out, fmt.Errorf("bad X-Carol-Compressor-Runs %q", r.header.Get("X-Carol-Compressor-Runs"))
	}
	return out, nil
}

// runCycle sends every operation once, in the given order, from workers
// goroutines with one connection each (a closed loop: each sends its next
// request when the previous one is answered) and returns the replies indexed
// like the operations, with the cycle's wall time.
func runCycle(st *serveState, order []int, workers int) ([]reply, time.Duration) {
	replies := make([]reply, len(st.ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
				replies[i] = post(st.client, st.srv.url(st.ops[i].query()), st.ops[i].in.raw)
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

// runServe drives one carolserve with fixed-ratio requests: a dumping
// application that waits for each reply, on nproc connections.
func runServe(e *env) (*result, error) {
	st, setups, err := repeatSetup(e, func() (*serveState, error) { return serveSetup(e) },
		(*serveState).teardown)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: wlServe, Metrics: make(map[string]float64)}
	err = serveMeasure(e, st, res, setups)
	if terr := st.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func serveMeasure(e *env, st *serveState, res *result, setups setupTimes) error {
	codecs, err := codecSet(servedCodecs)
	if err != nil {
		return err
	}
	res.OpHash = hashOps(st.ops)

	n := len(st.ops)
	lat := newOpTimes(n)
	firstBody := make([][]byte, n)
	firstReply := make([]reply, n)
	var okLat []float64
	var window float64 // summed wall time of the plain cycles
	var tr *tracer
	conns := e.nproc
	if e.trace {
		// One connection, one request at a time: the spans of a request must
		// not overlap another request's work.
		tr, conns = newTracer(), 1
	}
	// Every cycle sends the list in a new seeded order. At the end of a cycle
	// one connection waits for the other, for as long as the last request
	// takes; with one order for the whole run that wait, up to 150 ms of an
	// 850 ms cycle, was the seed's and moved goodput_mbps by 15 % from seed to
	// seed.
	orders := seeded(e.seed, streamCycles)
	start := time.Now()
	for time.Since(start).Seconds() < e.seconds || res.Cycles == 0 {
		// The host reference is sampled between cycles, while the server is
		// idle: beside a cycle it would take a core from the server.
		e.ref.sample()
		traced := e.trace && res.Cycles%2 == 1
		var replies []reply
		if traced {
			replies = serveTracedCycle(tr, st, codecs)
		} else {
			var wall time.Duration
			replies, wall = runCycle(st, orders.Perm(n), conns)
			window += wall.Seconds()
		}
		for i, r := range replies {
			res.Attempted++
			op := st.ops[i]
			if !traced {
				lat.add(i, r.latency)
			}
			switch {
			case r.err != nil:
				res.fail("%s: %v", op, r.err)
			case firstBody[i] == nil:
				firstBody[i], firstReply[i] = r.body, r
				okLat = append(okLat, r.latency.Seconds())
			case !bytes.Equal(r.body, firstBody[i]):
				res.fail("%s: answer differs from the first cycle's", op)
			default:
				okLat = append(okLat, r.latency.Seconds())
			}
		}
		res.Cycles++
	}
	slowdown := e.ref.slowdown(start, time.Now())
	timed := res.Attempted

	// Bodies were retained; decode and check each distinct answer now,
	// outside the window. Every later answer was byte-identical to it. The
	// decode is what the receiving application pays: it is timed, in several
	// passes over the answers so that decompress_mbps rests on as many
	// samples per codec as the other workloads give it.
	dec := newOpTimes(n)
	bad := make([]bool, n)
	decodeStart := time.Now()
	for pass := 0; pass < decodePasses; pass++ {
		for i, op := range st.ops {
			if firstBody[i] == nil || bad[i] {
				continue
			}
			out, err := verifyRatioReply(e, codecs[op.codec], op, firstReply[i])
			if err != nil {
				// The answer was counted as good in every cycle it appeared.
				res.fail("%s: %v", op, err)
				bad[i] = true
				continue
			}
			dec.add(i, out.decode)
			e.ref.tick()
		}
	}
	decodeSlowdown := e.ref.slowdown(decodeStart, time.Now())

	// The deterministic metrics come from the fixed validation set.
	val, err := generateInputs(validationSpecs(64), e.nproc, true)
	if err != nil {
		return err
	}
	var vops []serveOp
	for _, c := range servedCodecs {
		for _, in := range val {
			for _, target := range serveTargets(c) {
				vops = append(vops, serveOp{c, in, target})
			}
		}
	}
	outs := make([]ratioOutcome, len(vops))
	errs := make([]error, len(vops))
	parallelDo(len(vops), e.nproc, func(i int) {
		op := vops[i]
		outs[i], errs[i] = verifyRatioReply(e, codecs[op.codec], op, post(st.client, st.srv.url(op.query()), op.in.raw))
	})
	var ratios, misses, runs []float64
	for i, op := range vops {
		res.Attempted++
		if errs[i] != nil {
			res.fail("validation %s: %v", op, errs[i])
			continue
		}
		ratios = append(ratios, outs[i].achieved)
		misses = append(misses, math.Abs(outs[i].achieved-op.target)/op.target)
		runs = append(runs, outs[i].runs)
	}

	if e.trace {
		res.spans = tr.snapshot()
		serveLayerMetrics(res, st, lat)
		return nil
	}

	m := res.Metrics
	setups.report(m)
	cBytes, cSecs := map[string]int{}, map[string]float64{}
	dBytes, dSecs := map[string]int{}, map[string]float64{}
	var bytes int
	for i, op := range st.ops {
		b := op.in.f.SizeBytes()
		bytes += b * len(lat[i])
		cBytes[op.codec] += b * len(lat[i])
		cSecs[op.codec] += lat.total(i)
		dBytes[op.codec] += b * len(dec[i])
		dSecs[op.codec] += dec.total(i)
	}
	// Goodput over the measured window: the cycles' wall time, with nproc
	// requests in flight, leaving out the bookkeeping between them.
	m["goodput_mbps"] = mbps(bytes, window)
	m["compress_mbps"] = geomean(classMbps(cBytes, cSecs))
	m["decompress_mbps"] = geomean(classMbps(dBytes, dSecs))
	m["achieved_ratio_geomean"] = geomean(ratios)
	m["ratio_miss_p50"] = median(misses)
	m["compressor_runs_per_op"] = mean(runs)
	// The decode passes ran after the window and have a slowdown of their own.
	atReferenceSpeed(m, slowdown, "goodput_mbps", "compress_mbps")
	atReferenceSpeed(m, decodeSlowdown, "decompress_mbps")
	return latencySummary(res, okLat, timed, slowdown)
}

// tracedCodec records every Compress the search makes as a child span.
type tracedCodec struct {
	compressor.Codec
	tr         *tracer
	parent, op int
}

func (t tracedCodec) Compress(f *field.Field, eb float64) (stream []byte, err error) {
	t.tr.codec(t.Name()+".compress", t.parent, t.op, f.SizeBytes(), func() int {
		stream, err = t.Codec.Compress(f, eb)
		return len(stream)
	})
	return stream, err
}

// serveTracedCycle sends each request on its own (span carolserve.request)
// and then replays it in process through the layer calls the handler makes:
// body parse, the FRaZ search with its compressor runs, and the client's
// decode.
func serveTracedCycle(tr *tracer, st *serveState, codecs map[string]compressor.Codec) []reply {
	replies := make([]reply, len(st.ops))
	for i, op := range st.ops {
		root := tr.begin("carolserve.request", op.class(), 0, i, len(op.in.raw))
		r := post(st.client, st.srv.url(op.query()), op.in.raw)
		tr.end(root)
		replies[i] = r
		if r.err != nil {
			continue
		}
		for _, h := range []string{"X-Carol-Trace", "X-Carol-Compressor-Runs", "X-Carol-Achieved-Ratio"} {
			tr.note(root, h, r.header.Get(h))
		}
		replay := tr.begin("replay", op.class(), root, i, 0)
		var f *field.Field
		var err error
		tr.run("field.read_raw", replay, i, len(op.in.raw), func() {
			s := op.in.spec
			f, err = field.ReadRaw("replay", s.Nx, s.Ny, s.Nz, bytes.NewReader(op.in.raw))
		})
		if err == nil {
			search := tr.begin("fraz.search", op.codec, replay, i, len(op.in.raw))
			sr, serr := fraz.Search(tracedCodec{codecs[op.codec], tr, search, i}, f, op.target, fraz.Options{})
			tr.end(search)
			if serr == nil {
				tr.note(search, "runs", strconv.Itoa(sr.Runs))
				tr.note(search, "converged", strconv.FormatBool(sr.Converged))
			}
		}
		tr.end(replay)
		// What the receiving application does with the answer is no part of
		// the request's latency: it is kept out of the replay.
		client := tr.begin("client", op.class(), root, i, 0)
		tr.codec(op.codec+".decompress", client, i, len(op.in.raw), func() int {
			_, _ = codecs[op.codec].Decompress(r.body) // timing only: the answer is verified after the window
			return len(r.body)
		})
		tr.end(client)
	}
	return replies
}

func serveLayerMetrics(res *result, st *serveState, plain opTimes) {
	m := res.Metrics
	idx := indexSpans(res.spans)
	codecLayerMetrics(m, idx)
	m["field.read_raw_mbps"] = idx.get("field.read_raw").mbps()
	m["model.load_ms"] = st.loadMs
	m["carolserve.rss_peak_mib"] = st.srv.rssPeakMiB()
	requestLayerMetrics(m, res.spans, "carolserve")
	searchMs, searchRuns := map[string][]float64{}, map[string][]float64{}
	var searches, unconverged float64
	for _, s := range res.spans {
		if s.Name != "fraz.search" {
			continue
		}
		searchMs[s.Class] = append(searchMs[s.Class], 1e3*s.dur().Seconds())
		if runs, err := strconv.ParseFloat(s.Data["runs"], 64); err == nil {
			searchRuns[s.Class] = append(searchRuns[s.Class], runs)
		}
		searches++
		if s.Data["converged"] == "false" {
			unconverged++
		}
	}
	for _, c := range servedCodecs {
		m["fraz.search_ms_p50."+c] = median(searchMs[c])
		m["fraz.runs_per_search."+c] = mean(searchRuns[c])
	}
	if searches > 0 {
		m["fraz.unconverged_share"] = unconverged / searches
	}
	m["fraz.self_ms_p50"] = selfP50ms(res.spans, "fraz.search")
	harnessMetrics(m, res, plain, "carolserve.request")
}

// requestLayerMetrics fills <server>.<class>.latency_p50_ms and
// <server>.<class>.self_ms_est from request spans named <server>.request.
// The layer calls replayed for a request hang under a "replay" span whose
// parent is the request; they run after it, so they do not lie inside its
// interval, and the estimate of the serving tier's own time is the
// request's duration minus the sum of their durations.
func requestLayerMetrics(m map[string]float64, spans []span, server string) {
	requestOf := make(map[int]int) // replay span ID -> request span ID
	for _, s := range spans {
		if s.Name == "replay" {
			requestOf[s.ID] = s.Parent
		}
	}
	replayed := make(map[int]float64) // request span ID -> seconds replayed
	for _, s := range spans {
		if req, ok := requestOf[s.Parent]; ok {
			replayed[req] += s.dur().Seconds()
		}
	}
	latMs, selfMs := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		if s.Name != server+".request" {
			continue
		}
		d := s.dur().Seconds()
		latMs[s.Class] = append(latMs[s.Class], 1e3*d)
		if r, ok := replayed[s.ID]; ok {
			selfMs[s.Class] = append(selfMs[s.Class], 1e3*(d-r))
		}
	}
	for _, class := range sortedKeys(latMs) {
		m[server+"."+class+".latency_p50_ms"] = median(latMs[class])
		m[server+"."+class+".self_ms_est"] = median(selfMs[class])
	}
}
