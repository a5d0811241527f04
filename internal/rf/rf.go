// Package rf implements the random-forest regression model both FXRZ and
// CAROL train to map (data features, target compression ratio) to a
// predicted error bound: an ensemble of CART regression trees grown on
// bootstrap resamples with per-split feature subsetting, governed by the six
// hyper-parameters the FXRZ paper searches over (§5.3 of the CAROL paper).
//
// Training is deterministic and parallel: every tree's bootstrap sample and
// builder seed are derived serially from the master RNG, then the trees are
// grown on a worker pool, so a forest is bit-identical for any Config.Workers
// value (see DESIGN.md, "Parallel training engine").
package rf

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"carol/internal/obs"
	"carol/internal/xrand"
)

// Training/prediction metrics (obs.Default). Single-row Predict is left
// uninstrumented on purpose: it is the gridsearch/bayesopt inner loop and
// a per-call clock read there would be measurable; PredictBatch is the
// serving-path entry point and carries the histogram.
var (
	trainSeconds        = obs.Default.Histogram("rf_train_seconds", obs.LatencyBuckets())
	trainTotal          = obs.Default.Counter("rf_train_total")
	trainTreesTotal     = obs.Default.Counter("rf_train_trees_total")
	predictBatchSeconds = obs.Default.Histogram("rf_predict_batch_seconds", obs.LatencyBuckets())
	predictBatchRows    = obs.Default.Counter("rf_predict_batch_rows_total")
)

// MaxFeatures selects how many candidate features each split considers.
type MaxFeatures int

const (
	// MaxFeaturesAuto considers every feature at every split.
	MaxFeaturesAuto MaxFeatures = iota
	// MaxFeaturesSqrt considers ceil(sqrt(d)) random features per split.
	MaxFeaturesSqrt
)

func (m MaxFeatures) String() string {
	if m == MaxFeaturesSqrt {
		return "sqrt"
	}
	return "auto"
}

// Config holds the forest hyper-parameters (names and ranges follow FXRZ).
type Config struct {
	NEstimators     int         // number of trees [90, 1200]
	MaxFeatures     MaxFeatures // features per split {auto, sqrt}
	MaxDepth        int         // maximum tree depth [10, 110]
	MinSamplesSplit int         // {2, 5, 10}
	MinSamplesLeaf  int         // {1, 2, 4}
	Bootstrap       bool        // resample with replacement
	Seed            uint64      // RNG seed for bootstrap + feature choice
	// Workers bounds the goroutines used for tree growth, cross-validation
	// folds and batch prediction: 0 uses every core (GOMAXPROCS), 1 forces
	// the serial path. It does not affect the trained model — output is
	// bit-identical for every value.
	Workers int
}

// DefaultConfig is a reasonable untuned starting point.
func DefaultConfig() Config {
	return Config{
		NEstimators:     100,
		MaxFeatures:     MaxFeaturesAuto,
		MaxDepth:        30,
		MinSamplesSplit: 2,
		MinSamplesLeaf:  1,
		Bootstrap:       true,
		Seed:            1,
	}
}

func (c Config) validate() error {
	if c.NEstimators < 1 {
		return fmt.Errorf("rf: NEstimators %d < 1", c.NEstimators)
	}
	if c.MaxDepth < 1 {
		return fmt.Errorf("rf: MaxDepth %d < 1", c.MaxDepth)
	}
	if c.MinSamplesSplit < 2 {
		return fmt.Errorf("rf: MinSamplesSplit %d < 2", c.MinSamplesSplit)
	}
	if c.MinSamplesLeaf < 1 {
		return fmt.Errorf("rf: MinSamplesLeaf %d < 1", c.MinSamplesLeaf)
	}
	return nil
}

// resolveWorkers maps the Workers knob to a concrete goroutine count.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// node is one decision-tree node, stored flat.
type node struct {
	feature int     // split feature, -1 for leaf
	thresh  float64 // go left if x[feature] <= thresh
	left    int32
	right   int32
	value   float64 // leaf prediction
	gain    float64 // weighted variance reduction achieved by the split
}

type tree struct {
	nodes []node
}

func (t *tree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.thresh {
			i = int(n.left)
		} else {
			i = int(n.right)
		}
	}
}

// Forest is a trained random-forest regressor.
type Forest struct {
	trees []tree
	dims  int
	cfg   Config
}

// Config returns the hyper-parameters the forest was trained with.
func (f *Forest) Config() Config { return f.cfg }

// Train grows a forest on the rows of X (features) and targets y.
//
// All randomness — each tree's bootstrap sample and its builder seed — is
// drawn from the master RNG serially, in tree order, before any tree is
// grown; the worker pool only parallelizes the (deterministic) growth, so
// the result does not depend on Config.Workers.
func Train(X [][]float64, y []float64, cfg Config) (*Forest, error) {
	start := time.Now()
	defer trainSeconds.ObserveSince(start)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	trainTotal.Inc()
	trainTreesTotal.Add(int64(cfg.NEstimators))
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("rf: empty or mismatched training data")
	}
	dims := len(X[0])
	for i, row := range X {
		if len(row) != dims {
			return nil, fmt.Errorf("rf: row %d has %d features, want %d", i, len(row), dims)
		}
	}
	f := &Forest{trees: make([]tree, cfg.NEstimators), dims: dims, cfg: cfg}
	rng := xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
	boots := make([][]int, cfg.NEstimators)
	seeds := make([]uint64, cfg.NEstimators)
	for ti := range boots {
		idx := make([]int, len(X))
		if cfg.Bootstrap {
			for i := range idx {
				idx[i] = rng.Intn(len(X))
			}
		} else {
			for i := range idx {
				idx[i] = i
			}
		}
		boots[ti] = idx
		seeds[ti] = rng.Uint64()
	}
	growTree := func(ti int) {
		b := &builder{X: X, y: y, cfg: cfg, dims: dims, rng: xrand.New(seeds[ti])}
		f.trees[ti] = tree{nodes: b.build(boots[ti])}
	}
	workers := resolveWorkers(cfg.Workers)
	if workers > cfg.NEstimators {
		workers = cfg.NEstimators
	}
	if workers == 1 {
		for ti := range f.trees {
			growTree(ti)
		}
		return f, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ti := int(next.Add(1)) - 1
				if ti >= len(f.trees) {
					return
				}
				growTree(ti)
			}
		}()
	}
	wg.Wait()
	return f, nil
}

// Predict returns the forest's prediction for one feature row.
func (f *Forest) Predict(x []float64) (float64, error) {
	if len(x) != f.dims {
		return 0, fmt.Errorf("rf: predict with %d features, trained on %d", len(x), f.dims)
	}
	var sum float64
	for i := range f.trees {
		sum += f.trees[i].predict(x)
	}
	return sum / float64(len(f.trees)), nil
}

// PredictBatch predicts every row of X, splitting the batch over up to
// Config.Workers goroutines. Each row's result is bit-identical to a
// Predict call on that row.
func (f *Forest) PredictBatch(X [][]float64) ([]float64, error) {
	start := time.Now()
	defer predictBatchSeconds.ObserveSince(start)
	predictBatchRows.Add(int64(len(X)))
	for i, row := range X {
		if len(row) != f.dims {
			return nil, fmt.Errorf("rf: predict row %d with %d features, trained on %d", i, len(row), f.dims)
		}
	}
	out := make([]float64, len(X))
	predictRange := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			var sum float64
			for ti := range f.trees {
				sum += f.trees[ti].predict(X[r])
			}
			out[r] = sum / float64(len(f.trees))
		}
	}
	// Below this many rows per goroutine the spawn overhead dominates.
	const minRowsPerWorker = 16
	workers := resolveWorkers(f.cfg.Workers)
	if maxW := len(X) / minRowsPerWorker; workers > maxW {
		workers = maxW
	}
	if workers <= 1 {
		predictRange(0, len(X))
		return out, nil
	}
	chunk := (len(X) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(X))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			predictRange(lo, hi)
		}()
	}
	wg.Wait()
	return out, nil
}

// FeatureImportance returns the normalized variance-reduction importance of
// each input feature, aggregated over every split in the forest. The values
// sum to 1 (or are all zero for a forest of pure leaves). FXRZ justified its
// five features empirically; this exposes the same diagnostic.
func (f *Forest) FeatureImportance() []float64 {
	imp := make([]float64, f.dims)
	var total float64
	for _, t := range f.trees {
		for _, n := range t.nodes {
			if n.feature >= 0 {
				imp[n.feature] += n.gain
				total += n.gain
			}
		}
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// builder grows a single tree. All per-node working storage is reused
// across the whole tree: sample indices are partitioned in place, and the
// split search sorts into fixed scratch buffers.
type builder struct {
	X     [][]float64
	y     []float64
	cfg   Config
	dims  int
	rng   *xrand.Source
	nodes []node

	idx   []int  // sample indices; grow partitions segments of this in place
	part  []int  // stable-partition scratch (right-child indices)
	feats []int  // feature-permutation scratch, one Fisher-Yates draw per split
	pairs []pair // split-search sort buffer
}

// build grows the tree over the bootstrap sample idx (which the builder
// takes ownership of) and returns the flat node array.
func (b *builder) build(idx []int) []node {
	b.idx = idx
	b.part = make([]int, 0, len(idx))
	b.feats = make([]int, b.dims)
	b.pairs = make([]pair, len(idx))
	b.grow(0, len(idx), 0)
	return b.nodes
}

func (b *builder) leaf(lo, hi int) int32 {
	var sum float64
	for _, i := range b.idx[lo:hi] {
		sum += b.y[i]
	}
	b.nodes = append(b.nodes, node{feature: -1, value: sum / float64(hi-lo)})
	return int32(len(b.nodes) - 1)
}

// grow recursively builds the subtree over b.idx[lo:hi] and returns its
// node index.
func (b *builder) grow(lo, hi, depth int) int32 {
	if depth >= b.cfg.MaxDepth || hi-lo < b.cfg.MinSamplesSplit || b.pureTargets(lo, hi) {
		return b.leaf(lo, hi)
	}
	feat, thresh, childScore, ok := b.bestSplit(lo, hi)
	if !ok {
		return b.leaf(lo, hi)
	}
	mid := b.partition(lo, hi, feat, thresh)
	if mid-lo < b.cfg.MinSamplesLeaf || hi-mid < b.cfg.MinSamplesLeaf {
		return b.leaf(lo, hi)
	}
	// Importance: weighted variance reduction achieved by this split.
	gain := (b.targetVariance(lo, hi) - childScore) * float64(hi-lo)
	if gain < 0 {
		gain = 0
	}
	// Reserve this node's slot before growing children.
	me := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feature: feat, thresh: thresh, gain: gain})
	l := b.grow(lo, mid, depth+1)
	r := b.grow(mid, hi, depth+1)
	b.nodes[me].left = l
	b.nodes[me].right = r
	return me
}

// partition stably reorders b.idx[lo:hi] so indices with X[i][feat] <=
// thresh precede the rest, and returns the boundary. Left elements are
// written behind the read cursor; right elements park in the part scratch.
func (b *builder) partition(lo, hi, feat int, thresh float64) int {
	right := b.part[:0]
	w := lo
	for _, i := range b.idx[lo:hi] {
		if b.X[i][feat] <= thresh {
			b.idx[w] = i
			w++
		} else {
			right = append(right, i)
		}
	}
	copy(b.idx[w:hi], right)
	b.part = right[:0]
	return w
}

// targetVariance computes the variance of y over b.idx[lo:hi].
func (b *builder) targetVariance(lo, hi int) float64 {
	var sum, sq float64
	for _, i := range b.idx[lo:hi] {
		sum += b.y[i]
		sq += b.y[i] * b.y[i]
	}
	n := float64(hi - lo)
	m := sum / n
	return sq/n - m*m
}

func (b *builder) pureTargets(lo, hi int) bool {
	first := b.y[b.idx[lo]]
	for _, i := range b.idx[lo+1 : hi] {
		if b.y[i] != first { //carol:allow floateq node purity means bit-identical targets
			return false
		}
	}
	return true
}

// maxSplitCandidates caps the thresholds evaluated per feature; above this
// the sorted values are subsampled evenly.
const maxSplitCandidates = 32

// bestSplit finds the (feature, threshold) minimizing the weighted child
// variance over the candidate feature subset, returning that variance too.
//
// Instead of rescanning all samples per candidate threshold, each feature
// is processed with one sorted sweep: the (value, target) pairs are sorted
// once, and running prefix sums of the targets give every candidate's
// weighted child variance in O(1), for O(n log n) per feature.
func (b *builder) bestSplit(lo, hi int) (feat int, thresh, score float64, ok bool) {
	nFeat := b.dims
	if b.cfg.MaxFeatures == MaxFeaturesSqrt {
		nFeat = int(math.Ceil(math.Sqrt(float64(b.dims))))
	}
	// The full permutation is always drawn — even when every feature is
	// considered — to keep RNG consumption identical across configurations.
	b.rng.PermInto(b.feats)
	feats := b.feats[:nFeat]

	n := hi - lo
	ps := b.pairs[:n]
	bestScore := math.Inf(1)
	for _, ft := range feats {
		for k, i := range b.idx[lo:hi] {
			ps[k] = pair{b.X[i][ft], b.y[i]}
		}
		sortPairs(ps)
		var sumT, sqT float64
		for _, p := range ps {
			sumT += p.y
			sqT += p.y * p.y
		}
		// Candidate thresholds: midpoints between distinct consecutive
		// values, evenly subsampled if too many.
		step := 1
		if n > maxSplitCandidates {
			step = n / maxSplitCandidates
		}
		j := 0
		var sumL, sqL float64
		for vi := 0; vi+step < n; vi += step {
			a, c := ps[vi].v, ps[vi+step].v
			if a == c { //carol:allow floateq equal sorted values admit no threshold between them
				continue
			}
			t := (a + c) / 2
			// Thresholds increase monotonically, so the left-side prefix
			// sums advance with a single cursor over the sorted pairs.
			for j < n && ps[j].v <= t {
				sumL += ps[j].y
				sqL += ps[j].y * ps[j].y
				j++
			}
			nL, nR := float64(j), float64(n-j)
			sumR, sqR := sumT-sumL, sqT-sqL
			varL := sqL/nL - (sumL/nL)*(sumL/nL)
			varR := sqR/nR - (sumR/nR)*(sumR/nR)
			if s := (nL*varL + nR*varR) / (nL + nR); s < bestScore {
				bestScore = s
				feat, thresh, ok = ft, t, true
			}
		}
	}
	return feat, thresh, bestScore, ok
}
