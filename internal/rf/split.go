package rf

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ranked is a training matrix whose columns are ranked and ordered once, so
// the split search reads small integers in presorted order instead of
// sorting float64 values. Every forest grown on the matrix — each fold of a
// cross-validation, each round of a boosted fit — shares the ranking.
type ranked struct {
	X     [][]float64
	dims  int
	vals  [][]float64 // vals[f][r]: column f's r-th smallest distinct value
	order [][]pair    // order[f]: every row i as (rank of X[i][f], i), sorted
}

// rankMatrix checks X (non-empty, rectangular, finite) and ranks every
// column.
func rankMatrix(X [][]float64) (*ranked, error) {
	if len(X) == 0 {
		return nil, errors.New("rf: empty or mismatched training data")
	}
	if uint64(len(X)) > math.MaxUint32 {
		return nil, fmt.Errorf("rf: %d training rows, at most %d", len(X), uint32(math.MaxUint32))
	}
	dims := len(X[0])
	for i, row := range X {
		if len(row) != dims {
			return nil, fmt.Errorf("rf: row %d has %d features, want %d", i, len(row), dims)
		}
	}
	rk := &ranked{X: X, dims: dims, vals: make([][]float64, dims), order: make([][]pair, dims)}
	col := make([]float64, len(X))
	for f := range dims {
		for i, row := range X {
			col[i] = row[f]
		}
		var err error
		if rk.order[f], rk.vals[f], err = rankColumn(col); err != nil {
			return nil, fmt.Errorf("rf: feature %d: %w", f, err)
		}
	}
	return rk, nil
}

// rankColumn ranks every value of col among col's distinct values, so
// that one rank is below another exactly when its value is, and returns
// col's rows as (rank, row) pairs sorted by (value, row), with the distinct
// values in ascending order. Values equal under == share a rank, -0 and +0
// included; the first one in sorted order stands for them in vals, which
// is safe because a threshold is always the midpoint of two different
// ranks' values and x ± 0 = x for any x ≠ 0. NaN and ±Inf are refused:
// they have no place in a total order.
func rankColumn(col []float64) (order []pair, vals []float64, err error) {
	for i, v := range col {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("row %d holds non-finite %v", i, v)
		}
	}
	rows := make([]uint32, len(col))
	for i := range rows {
		rows[i] = uint32(i)
	}
	slices.SortStableFunc(rows, func(a, b uint32) int { return cmp.Compare(col[a], col[b]) })
	order = make([]pair, len(col))
	for k, i := range rows {
		if k == 0 || col[i] != col[rows[k-1]] { //carol:allow floateq distinct values get distinct ranks
			vals = append(vals, col[i])
		}
		order[k] = mkpair(uint32(len(vals)-1), i)
	}
	return order, vals, nil
}

// checkTargets refuses a target vector that does not match n rows or holds
// NaN or ±Inf.
func checkTargets(y []float64, n int) error {
	if len(y) != n {
		return errors.New("rf: empty or mismatched training data")
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("rf: target %d is non-finite %v", i, v)
		}
	}
	return nil
}

// pair is one (feature rank, row) entry of a presorted column, packed in
// one word (rank in the high half), so pairs order by (rank, row).
type pair uint64

func mkpair(r, row uint32) pair { return pair(uint64(r)<<32 | uint64(row)) }
func (p pair) r() uint32        { return uint32(p >> 32) }
func (p pair) row() uint32      { return uint32(p) }

// presort lists a tree's sample idx once per feature as (rank, row) pairs
// in ascending order: row i appears as often as idx holds it, and tied
// ranks are ordered by row. The columns share one allocation.
func (rk *ranked) presort(idx []int) [][]pair {
	count := make([]uint32, len(rk.X))
	for _, i := range idx {
		count[i]++
	}
	buf := make([]pair, 0, rk.dims*len(idx))
	cols := make([][]pair, rk.dims)
	for f, order := range rk.order {
		start := len(buf)
		for _, p := range order {
			for range count[p.row()] {
				buf = append(buf, p)
			}
		}
		cols[f] = buf[start:len(buf):len(buf)]
	}
	return cols
}

// maxSplitCandidates caps the thresholds evaluated per feature; above this
// the sorted values are subsampled evenly.
const maxSplitCandidates = 32

// candidateStep is the sorted-position stride between a feature's candidate
// thresholds at a node of n rows.
func candidateStep(n int) int {
	if n > maxSplitCandidates {
		return n / maxSplitCandidates
	}
	return 1
}

// splitScore is the weighted child variance of a split that sends nL rows
// (target sum sumL, square sum sqL) left and the rest of the node's
// (sumT, sqT) right. It is NaN when either side is empty.
func splitScore(nL, nR, sumL, sqL, sumT, sqT float64) float64 {
	sumR, sqR := sumT-sumL, sqT-sqL
	varL := sqL/nL - (sumL/nL)*(sumL/nL)
	varR := sqR/nR - (sumR/nR)*(sumR/nR)
	return (nL*varL + nR*varR) / (nL + nR)
}

// bestSplit finds the (feature, threshold) minimizing the weighted child
// variance over the candidate feature subset, returning that variance too.
// Each candidate feature is swept over the node's segment of its presorted
// column, and features are merged in draw order with strict <, so the
// first feature and threshold reaching the minimum win.
func (b *builder) bestSplit(lo, hi int) (feat int, thresh, score float64, ok bool) {
	nFeat := b.dims
	if b.cfg.MaxFeatures == MaxFeaturesSqrt {
		nFeat = int(math.Ceil(math.Sqrt(float64(b.dims))))
	}
	// The full permutation is always drawn — even when every feature is
	// considered — to keep RNG consumption identical across configurations.
	b.rng.PermInto(b.feats)
	score = math.Inf(1)
	for _, ft := range b.feats[:nFeat] {
		if s, t := b.sweep(b.cols[ft][lo:hi], b.vals[ft]); s < score {
			feat, thresh, score, ok = ft, t, s, true
		}
	}
	return feat, thresh, score, ok
}

// sweep scores each candidate threshold of one feature over a node's rows
// ps, sorted by (rank, row): the midpoint between the values at sorted
// positions vi and vi+step, when they differ, scored from running prefix
// sums of the targets in sorted order. It returns the smallest weighted
// child variance (+Inf when no threshold splits the node) and the first
// threshold that reaches it.
func (b *builder) sweep(ps []pair, vals []float64) (score, thresh float64) {
	var sumT, sqT float64
	for _, p := range ps {
		yi := b.y[p.row()]
		sumT += yi
		sqT += yi * yi
	}
	n := len(ps)
	step := candidateStep(n)
	score = math.Inf(1)
	j := 0
	var sumL, sqL float64
	for vi := 0; vi+step < n; vi += step {
		ra, rc := ps[vi].r(), ps[vi+step].r()
		if ra == rc {
			continue
		}
		t := (vals[ra] + vals[rc]) / 2
		// Thresholds increase monotonically, so the left-side prefix
		// sums advance with a single cursor over the sorted pairs.
		for j < n && vals[ps[j].r()] <= t {
			yj := b.y[ps[j].row()]
			sumL += yj
			sqL += yj * yj
			j++
		}
		if s := splitScore(float64(j), float64(n-j), sumL, sqL, sumT, sqT); s < score {
			score, thresh = s, t
		}
	}
	return score, thresh
}
