package rf

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ranked is a training matrix whose columns are ranked once, so the split
// search sorts and bins small integers instead of float64 values. Every
// forest grown on the matrix — each fold of a cross-validation, each round
// of a boosted fit — shares the ranking.
type ranked struct {
	X     [][]float64
	dims  int
	ranks [][]uint32  // ranks[f][i]: rank of X[i][f] among column f's distinct values
	vals  [][]float64 // vals[f][r]: column f's r-th smallest distinct value
}

// rankMatrix checks X (non-empty, rectangular, finite) and ranks every
// column.
func rankMatrix(X [][]float64) (*ranked, error) {
	if len(X) == 0 {
		return nil, errors.New("rf: empty or mismatched training data")
	}
	if len(X) > math.MaxUint32 {
		return nil, fmt.Errorf("rf: %d training rows, at most %d", len(X), uint32(math.MaxUint32))
	}
	dims := len(X[0])
	for i, row := range X {
		if len(row) != dims {
			return nil, fmt.Errorf("rf: row %d has %d features, want %d", i, len(row), dims)
		}
	}
	rk := &ranked{X: X, dims: dims, ranks: make([][]uint32, dims), vals: make([][]float64, dims)}
	col := make([]float64, len(X))
	for f := range dims {
		for i, row := range X {
			col[i] = row[f]
		}
		var err error
		if rk.ranks[f], rk.vals[f], err = rankColumn(col); err != nil {
			return nil, fmt.Errorf("rf: feature %d: %w", f, err)
		}
	}
	return rk, nil
}

// rankColumn maps every value of col to its rank among col's distinct
// values, so that ranks[i] < ranks[j] exactly when col[i] < col[j]; it
// returns the distinct values in ascending order. Values equal under ==
// share a rank, -0 and +0 included; the first one in sorted order stands
// for them in vals, which is safe because a threshold is always the
// midpoint of two different ranks' values and x ± 0 = x for any x ≠ 0.
// NaN and ±Inf are refused: they have no place in a total order.
func rankColumn(col []float64) (ranks []uint32, vals []float64, err error) {
	for i, v := range col {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("row %d holds non-finite %v", i, v)
		}
	}
	order := make([]uint32, len(col))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return cmp.Compare(col[a], col[b]) })
	ranks = make([]uint32, len(col))
	for k, i := range order {
		if k == 0 || col[i] != col[order[k-1]] { //carol:allow floateq distinct values get distinct ranks
			vals = append(vals, col[i])
		}
		ranks[i] = uint32(len(vals) - 1)
	}
	return ranks, vals, nil
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

// featSplit is one candidate feature's outcome at a node: the smallest
// child score (+Inf when no threshold splits the node), with the first
// threshold reaching it when exact.
type featSplit struct {
	score, thresh float64
	counted       bool // score is the counting estimate; no sweep has run
}

// bin is the target sums of a node's rows that share one rank.
type bin struct {
	n       int
	sum, sq float64
}

// bestSplit finds the (feature, threshold) minimizing the weighted child
// variance over the candidate feature subset, returning that variance too.
//
// The answer is, bit for bit, the one a sorted sweep of every candidate
// feature gives (refBestSplit in the tests): sort the node's rows by the
// feature, and score each candidate threshold from running prefix sums of
// the targets in that order. Since the rounding of those sums depends on
// the order of tied rows, a feature's exact score needs its sort. Most
// features do not need an exact score, only a proof that they lose:
//
//  1. A feature with R ≤ n distinct values is scored by counting: the
//     node's rows are binned by rank in O(n + R) and every candidate is
//     scored from the per-rank sums. The candidates, their thresholds and
//     their left/right counts are those of the sweep, because they depend
//     only on how many rows hold each value; only the summation order, and
//     so the rounding, differs. A feature with more distinct values is
//     swept at once.
//  2. Each score, counted or swept, is within E of its real-number value,
//     so a counted score lies within 2E of the swept one (errorBound). A
//     feature whose counted minimum exceeds the node's best score by more
//     than 4E therefore has a swept minimum more than 2E above the best
//     feature's, and cannot win: it is never sorted.
//  3. The remaining counted features are swept, and the exact results are
//     merged in feats order with strict <, as the single sweep does.
func (b *builder) bestSplit(lo, hi int) (feat int, thresh, score float64, ok bool) {
	nFeat := b.dims
	if b.cfg.MaxFeatures == MaxFeaturesSqrt {
		nFeat = int(math.Ceil(math.Sqrt(float64(b.dims))))
	}
	// The full permutation is always drawn — even when every feature is
	// considered — to keep RNG consumption identical across configurations.
	b.rng.PermInto(b.feats)
	feats := b.feats[:nFeat]

	rows := b.idx[lo:hi]
	n := len(rows)
	res := b.res[:len(feats)]
	best, counted := math.Inf(1), false
	for k, ft := range feats {
		if len(b.vals[ft]) <= n {
			res[k] = featSplit{score: b.countingMin(rows, ft), counted: true}
			counted = true
		} else {
			res[k] = b.sweep(rows, ft)
		}
		if res[k].score < best {
			best = res[k].score
		}
	}
	var limit float64
	if counted {
		limit = best + 4*b.errorBound(rows)
	}
	score = math.Inf(1)
	for k, ft := range feats {
		r := res[k]
		if r.counted {
			if !(r.score <= limit) {
				continue
			}
			r = b.sweep(rows, ft)
		}
		if r.score < score {
			feat, thresh, score, ok = ft, r.thresh, r.score, true
		}
	}
	return feat, thresh, score, ok
}

// errorBound returns E, a bound on how far any child score computed at this
// node, in any summation order, lies from its real-number value.
//
// With M = max|y| over the node's n rows and u = 2⁻⁵³, the score is
// (Q_L − S_L²/n_L + Q_R − S_R²/n_R)/n, where Q are sums of y² (each below
// n·M²), S sums of y (below n·M), and Q_R = Q_T − Q_L, S_R = S_T − S_L. A
// recursive sum of k terms errs by at most (k−1)·u times the sum of their
// magnitudes, whatever the order, so Q_L and Q_T each err by n·u·n·M²,
// and S_L and S_T by n·u·n·M. The numerator depends on Q with weight 1
// and on S with weight 2·|S/n_side| ≤ 2M, which gives
// (1 + 2 + 2 + 4)·n²·u·M² from the sums, plus O(n·u·M²) from the handful
// of other operations: after the division by n, about 10·n·u·M² to first
// order. E uses 64 instead of 10 to cover the second-order terms with
// room to spare. Squares and sums below 2⁻¹⁰²² underflow, where the error
// is absolute (at most 2⁻¹⁰⁷⁵ per operation) rather than relative, hence
// the n·2⁻¹⁰⁷⁴ term. If the sums can overflow, E is +Inf and every
// feature is swept.
func (b *builder) errorBound(rows []int) float64 {
	var m float64
	for _, i := range rows {
		m = max(m, math.Abs(b.y[i]))
	}
	n := float64(len(rows))
	m2 := m * m
	if math.IsInf(4*n*m2, 0) {
		return math.Inf(1)
	}
	return 64 * n * (0x1p-53*m2 + 0x1p-1074)
}

// countingMin scores every candidate threshold of feature ft from per-rank
// target sums, without sorting, and returns the smallest score (+Inf when
// no candidate splits the node).
func (b *builder) countingMin(rows []int, ft int) float64 {
	ranks, vals := b.ranks[ft], b.vals[ft]
	bins := b.bins[:len(vals)]
	clear(bins)
	for _, i := range rows {
		g, yi := &bins[ranks[i]], b.y[i]
		g.n++
		g.sum += yi
		g.sq += yi * yi
	}
	var sumT, sqT float64
	for _, g := range bins {
		sumT += g.sum
		sqT += g.sq
	}
	n := len(rows)
	step := candidateStep(n)
	best := math.Inf(1)
	// ga and gc are the ranks at sorted positions vi and vi+step (endA and
	// endC the first positions past them); gl is the first rank not yet in
	// the left sums.
	ga, endA := 0, bins[0].n
	gc, endC := 0, bins[0].n
	gl, nL := 0, 0
	var sumL, sqL float64
	for vi := 0; vi+step < n; vi += step {
		for endA <= vi {
			ga++
			endA += bins[ga].n
		}
		for endC <= vi+step {
			gc++
			endC += bins[gc].n
		}
		if ga == gc {
			continue
		}
		t := (vals[ga] + vals[gc]) / 2
		for gl < len(bins) && vals[gl] <= t {
			nL += bins[gl].n
			sumL += bins[gl].sum
			sqL += bins[gl].sq
			gl++
		}
		if s := splitScore(float64(nL), float64(n-nL), sumL, sqL, sumT, sqT); s < best {
			best = s
		}
	}
	return best
}

// sweep is the exact split search for feature ft: sort the node's rows by
// rank, then score each candidate threshold — the midpoint between the
// values at sorted positions vi and vi+step, when they differ — from
// running prefix sums of the targets in sorted order. It returns the
// smallest score and the first threshold that reaches it.
func (b *builder) sweep(rows []int, ft int) featSplit {
	ranks, vals := b.ranks[ft], b.vals[ft]
	n := len(rows)
	ps := b.pairs[:n]
	for k, i := range rows {
		ps[k] = mkpair(ranks[i], uint32(i))
	}
	sortPairs(ps)
	var sumT, sqT float64
	for _, p := range ps {
		yi := b.y[p.row()]
		sumT += yi
		sqT += yi * yi
	}
	step := candidateStep(n)
	out := featSplit{score: math.Inf(1)}
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
		if s := splitScore(float64(j), float64(n-j), sumL, sqL, sumT, sqT); s < out.score {
			out = featSplit{score: s, thresh: t}
		}
	}
	return out
}
