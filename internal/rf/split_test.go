package rf

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"carol/internal/xrand"
)

// refBestSplit is the float-keyed split search the presorted bestSplit
// replaced, kept as its oracle: every candidate feature's node rows are
// sorted by (value, row), with -0 and +0 tied, and swept, and the running
// best across features is updated with strict <.
func (b *builder) refBestSplit(lo, hi int) (feat int, thresh, score float64, ok bool) {
	nFeat := b.dims
	if b.cfg.MaxFeatures == MaxFeaturesSqrt {
		nFeat = int(math.Ceil(math.Sqrt(float64(b.dims))))
	}
	b.rng.PermInto(b.feats)
	feats := b.feats[:nFeat]

	type entry struct {
		v, y float64
		row  int
	}
	n := hi - lo
	es := make([]entry, n)
	bestScore := math.Inf(1)
	for _, ft := range feats {
		for k, i := range b.idx[lo:hi] {
			es[k] = entry{v: b.X[i][ft], y: b.y[i], row: i}
		}
		slices.SortFunc(es, func(a, c entry) int {
			return cmp.Or(cmp.Compare(a.v, c.v), cmp.Compare(a.row, c.row))
		})
		var sumT, sqT float64
		for _, e := range es {
			sumT += e.y
			sqT += e.y * e.y
		}
		step := 1
		if n > maxSplitCandidates {
			step = n / maxSplitCandidates
		}
		j := 0
		var sumL, sqL float64
		for vi := 0; vi+step < n; vi += step {
			a, c := es[vi].v, es[vi+step].v
			if a == c { //carol:allow floateq equal sorted values admit no threshold between them
				continue
			}
			t := (a + c) / 2
			for j < n && es[j].v <= t {
				sumL += es[j].y
				sqL += es[j].y * es[j].y
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

// splitSearchInput builds one training problem of the differential test.
// Shapes: 0 draws rows of the tie-heavy training matrix; 1 puts copies of a
// few-valued column beside a monotone image of it, a copy jittered inside
// its groups and a continuous column, so several features induce the same
// partition and only exact scores can break the tie; 2 mixes few-valued
// columns with -0 and +0; 3 takes its values from data. Targets follow the
// features plus noise, scaled by 10^yExp.
func splitSearchInput(tied [][]float64, tiedY []float64, shape uint8, n int, seed uint64, yExp int, data []byte) ([][]float64, []float64) {
	rng := xrand.New(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	negZero := math.Copysign(0, -1)
	for i := range X {
		switch shape % 4 {
		case 0:
			k := rng.Intn(len(tied))
			X[i], y[i] = tied[k], tiedY[k]
			continue
		case 1:
			g := float64(rng.Intn(1 + n/16))
			X[i] = []float64{g, g, 3*g - 7, g + 0.25*rng.Float64(), rng.Float64()}
		case 2:
			zeros := []float64{negZero, 0, 1, -1}
			X[i] = []float64{zeros[rng.Intn(4)], float64(rng.Intn(3)), zeros[rng.Intn(2)], float64(rng.Intn(1+n/4)) - 2}
		case 3:
			row := make([]float64, 4)
			for j := range row {
				if len(data) > 0 {
					row[j] = float64(int8(data[(i*len(row)+j)%len(data)])) / 8
				}
			}
			X[i] = row
		}
		var s float64
		for j, v := range X[i] {
			s += float64(j+1) * v
		}
		y[i] = math.Sin(s) + 0.1*rng.Norm()
	}
	if shape%4 != 0 || yExp != 0 {
		scale := math.Pow(10, float64(yExp))
		for i := range y {
			y[i] *= scale
		}
	}
	return X, y
}

// checkSplitSearch grows the same forest with bestSplit and refBestSplit
// and fails unless the two are equal bit for bit. It also trains on a row
// list, as a cross-validation fold does, and requires the forest Train
// grows on those rows copied out.
func checkSplitSearch(t *testing.T, X [][]float64, y []float64, cfg Config) {
	t.Helper()
	rk, err := rankMatrix(X)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := rk.train(nil, y, cfg, (*builder).bestSplit)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rk.train(nil, y, cfg, (*builder).refBestSplit)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := flatDigest(fast.Flatten()), flatDigest(ref.Flatten()); got != want {
		t.Fatalf("n=%d %+v: presorted forest %s, float-keyed reference %s", len(X), cfg, got, want)
	}
	var rows []int
	var subX [][]float64
	var subY []float64
	for i := range X {
		if i%3 != 1 {
			rows = append(rows, i)
			subX = append(subX, X[i])
			subY = append(subY, y[i])
		}
	}
	fold, err := rk.train(rows, y, cfg, (*builder).bestSplit)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := Train(subX, subY, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := flatDigest(fold.Flatten()), flatDigest(copied.Flatten()); got != want {
		t.Fatalf("n=%d %+v: forest on a row list %s, on the copied rows %s", len(X), cfg, got, want)
	}
}

// FuzzSplitSearchMatchesReference holds the presorted split search (the
// per-tree column presort, its stable partitions and the rank-keyed sweep)
// to the float-keyed reference, forest for forest.
func FuzzSplitSearchMatchesReference(f *testing.F) {
	tied, tiedY := tiedData(f)
	// shape, n, seed, yExp, sqrt features, bootstrap, data
	f.Add(uint8(0), uint16(420), uint64(1), int16(0), false, true, []byte(nil))
	f.Add(uint8(0), uint16(420), uint64(2), int16(0), true, false, []byte(nil))
	f.Add(uint8(0), uint16(600), uint64(3), int16(-300), false, false, []byte(nil))
	f.Add(uint8(1), uint16(300), uint64(4), int16(0), false, false, []byte(nil))
	f.Add(uint8(1), uint16(600), uint64(5), int16(6), true, true, []byte(nil))
	f.Add(uint8(1), uint16(40), uint64(6), int16(-160), false, true, []byte(nil))
	f.Add(uint8(2), uint16(64), uint64(7), int16(0), false, true, []byte(nil))
	f.Add(uint8(2), uint16(500), uint64(8), int16(-300), true, false, []byte(nil))
	f.Add(uint8(2), uint16(0), uint64(9), int16(3), false, false, []byte(nil))
	f.Add(uint8(3), uint16(1), uint64(10), int16(0), false, true, []byte{1, 2, 3})
	f.Add(uint8(3), uint16(200), uint64(11), int16(-100), true, true, []byte{0, 0x80, 7, 7, 0xff, 3, 0x80, 0, 9})
	f.Fuzz(func(t *testing.T, shape uint8, n uint16, seed uint64, yExp int16, sqrt, boot bool, data []byte) {
		rows := 2 + int(n)%599
		exp := max(-300, min(6, int(yExp)))
		X, y := splitSearchInput(tied, tiedY, shape, rows, seed, exp, data)
		cfg := DefaultConfig()
		cfg.NEstimators = 3
		cfg.Bootstrap = boot
		cfg.Seed = seed
		cfg.Workers = 1
		if sqrt {
			cfg.MaxFeatures = MaxFeaturesSqrt
		}
		checkSplitSearch(t, X, y, cfg)
	})
}

// TestTrainRejectsNonFinite: a NaN or ±Inf anywhere in X or y is refused
// by Train, TrainerFor and CrossValidate instead of growing trees on
// comparisons that are always false.
func TestTrainRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		X, y := synthData(30, 21, 0.1)
		X[17][1] = bad
		if _, err := Train(X, y, DefaultConfig()); err == nil {
			t.Errorf("Train accepted X holding %v", bad)
		}
		if _, err := TrainerFor(X); err == nil {
			t.Errorf("TrainerFor accepted X holding %v", bad)
		}
		if _, err := CrossValidate(X, y, DefaultConfig(), 3, 1); err == nil {
			t.Errorf("CrossValidate accepted X holding %v", bad)
		}
		X, y = synthData(30, 22, 0.1)
		y[4] = bad
		if _, err := Train(X, y, DefaultConfig()); err == nil {
			t.Errorf("Train accepted y holding %v", bad)
		}
		if _, err := CrossValidate(X, y, DefaultConfig(), 3, 1); err == nil {
			t.Errorf("CrossValidate accepted y holding %v", bad)
		}
	}
}

// TestSweepMidpointOnValue covers thresholds that land on a value. With
// four rows per value and a candidate stride of five rows, the midpoint of
// the integers 3 and 5 is 4, a value held by rows between the two
// candidate positions; on a column of consecutive floats above 1, the
// midpoint of two adjacent values whose lower one has an odd mantissa
// rounds onto the upper one. Either way the sweep must send the rows
// holding the threshold left, as the partition does. The target steps
// after every value in turn, so each such midpoint is once the best split.
func TestSweepMidpointOnValue(t *testing.T) {
	const n = 160
	for _, value := range []func(k int) float64{
		func(k int) float64 { return float64(k) },
		func(k int) float64 { return 1 + float64(k)*0x1p-52 },
	} {
		X := make([][]float64, n)
		for i := range X {
			X[i] = []float64{value(i / 4)}
		}
		for cut := range n / 4 {
			y := make([]float64, n)
			for i := range y {
				if i/4 > cut {
					y[i] = 1
				}
			}
			cfg := DefaultConfig()
			cfg.NEstimators = 2
			cfg.Workers = 1
			checkSplitSearch(t, X, y, cfg)
		}
	}
}
