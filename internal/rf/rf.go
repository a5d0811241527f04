// Package rf implements the random-forest regression model both FXRZ and
// CAROL train to map (data features, target compression ratio) to a
// predicted error bound: an ensemble of CART regression trees grown on
// bootstrap resamples with per-split feature subsetting, governed by the six
// hyper-parameters the FXRZ paper searches over (§5.3 of the CAROL paper).
//
// Training is deterministic and parallel: every tree's bootstrap sample and
// builder seed are derived serially from the master RNG, then the trees are
// grown on pipeline.FanOut, so a forest is bit-identical for any
// Config.Workers value (see DESIGN.md, "Parallel training engine").
package rf

import (
	"fmt"
	"time"

	"carol/internal/obs"
	"carol/internal/pipeline"
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

// Train grows a forest on the rows of X (features) and targets y. Every
// value of X and y must be finite. It is TrainerFor(X) followed by one call
// of the returned trainer.
func Train(X [][]float64, y []float64, cfg Config) (*Forest, error) {
	train, err := TrainerFor(X)
	if err != nil {
		return nil, err
	}
	return train(y, cfg)
}

// TrainerFor checks X and ranks each of its columns once, then returns a
// trainer that grows forests on X against any target vector, as Train
// does. A caller fitting many forests to one X (boosting rounds) ranks it
// once instead of once per fit. X must not change while the trainer is in
// use; the trainer may be called from several goroutines.
func TrainerFor(X [][]float64) (func(y []float64, cfg Config) (*Forest, error), error) {
	rk, err := rankMatrix(X)
	if err != nil {
		return nil, err
	}
	return func(y []float64, cfg Config) (*Forest, error) {
		return rk.train(nil, y, cfg, (*builder).bestSplit)
	}, nil
}

// splitSearch finds a node's best (feature, threshold) and its child score.
type splitSearch func(b *builder, lo, hi int) (feat int, thresh, score float64, ok bool)

// train grows a forest on the given rows of rk.X (every row when rows is
// nil) against y, which is indexed like rk.X.
//
// All randomness — each tree's bootstrap sample and its builder seed — is
// drawn from the master RNG serially, in tree order, before any tree is
// grown; pipeline.FanOut only parallelizes the (deterministic) growth, so
// the result does not depend on Config.Workers. A bootstrap draw picks a
// position in rows, so training on a row list grows the forest Train grows
// on those rows copied out in order.
func (rk *ranked) train(rows []int, y []float64, cfg Config, search splitSearch) (*Forest, error) {
	start := time.Now()
	defer trainSeconds.ObserveSince(start)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	trainTotal.Inc()
	trainTreesTotal.Add(int64(cfg.NEstimators))
	if err := checkTargets(y, len(rk.X)); err != nil {
		return nil, err
	}
	if rows == nil {
		rows = make([]int, len(rk.X))
		for i := range rows {
			rows[i] = i
		}
	}
	rng := xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
	boots := make([][]int, cfg.NEstimators)
	seeds := make([]uint64, cfg.NEstimators)
	for ti := range boots {
		idx := make([]int, len(rows))
		if cfg.Bootstrap {
			for i := range idx {
				idx[i] = rows[rng.Intn(len(rows))]
			}
		} else {
			copy(idx, rows)
		}
		boots[ti] = idx
		seeds[ti] = rng.Uint64()
	}
	trees, err := pipeline.FanOut(len(boots), cfg.Workers, func(ti int) (tree, error) {
		b := &builder{ranked: rk, y: y, cfg: cfg, rng: xrand.New(seeds[ti]), search: search}
		return tree{nodes: b.build(boots[ti])}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Forest{trees: trees, dims: rk.dims, cfg: cfg}, nil
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

// PredictBatch predicts every row of X, fanning chunks of rows out over up
// to Config.Workers goroutines. Each row's result is bit-identical to a
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
	// Rows per FanOut item: enough work to amortize the item's goroutine,
	// and a batch this small runs in the caller's goroutine.
	const chunk = 64
	out := make([]float64, len(X))
	_, err := pipeline.FanOut((len(X)+chunk-1)/chunk, f.cfg.Workers, func(c int) (struct{}, error) {
		for r := c * chunk; r < min((c+1)*chunk, len(X)); r++ {
			var sum float64
			for ti := range f.trees {
				sum += f.trees[ti].predict(X[r])
			}
			out[r] = sum / float64(len(f.trees))
		}
		return struct{}{}, nil
	})
	return out, err
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
// across the whole tree: the sample indices and the presorted columns are
// partitioned in place, so every node owns one segment [lo, hi) of each.
type builder struct {
	*ranked
	y      []float64
	cfg    Config
	rng    *xrand.Source
	search splitSearch
	nodes  []node

	idx   []int    // sample indices; grow partitions segments of this in place
	cols  [][]pair // cols[f]: the sample as (rank, row) pairs, each segment sorted
	left  []uint8  // left[i]: 1 if row i goes to the left child of the node being split
	part  []int    // stable-partition scratch (right-child indices)
	pairs []pair   // stable-partition scratch (right-child pairs)
	feats []int    // feature-permutation scratch, one Fisher-Yates draw per split
}

// build grows the tree over the bootstrap sample idx (which the builder
// takes ownership of) and returns the flat node array.
func (b *builder) build(idx []int) []node {
	b.idx = idx
	b.cols = b.presort(idx)
	b.left = make([]uint8, len(b.X))
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
	feat, thresh, childScore, ok := b.search(b, lo, hi)
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
// Every presorted column segment is partitioned the same way, so each
// child's segments hold its rows still sorted by (rank, row).
func (b *builder) partition(lo, hi, feat int, thresh float64) int {
	right := b.part[:0]
	w := lo
	for _, i := range b.idx[lo:hi] {
		if b.X[i][feat] <= thresh {
			b.left[i] = 1
			b.idx[w] = i
			w++
		} else {
			b.left[i] = 0
			right = append(right, i)
		}
	}
	copy(b.idx[w:hi], right)
	b.part = right[:0]
	// The column passes are branch-free: each pair is written to both
	// sides, and only its side's cursor advances.
	rp := b.pairs[:hi-lo]
	for _, col := range b.cols {
		cw, rw := lo, 0
		for _, p := range col[lo:hi] {
			l := int(b.left[p.row()])
			col[cw], rp[rw] = p, p
			cw += l
			rw += 1 - l
		}
		copy(col[cw:hi], rp[:rw])
	}
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
