package rf

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"carol/internal/xrand"
)

// tiedData loads testdata/tied_trainset.txt: a real training matrix whose
// five feature columns are constant per field and whose sixth is the
// log-ratio, so the split search sorts long runs of equal keys. synthData
// has no ties and under-weights exactly the case the sort must get right.
func tiedData(tb testing.TB) ([][]float64, []float64) {
	tb.Helper()
	file, err := os.Open("testdata/tied_trainset.txt")
	if err != nil {
		tb.Fatal(err)
	}
	defer file.Close()
	parse := func(fields []string) []float64 {
		out := make([]float64, len(fields))
		for i, s := range fields {
			if out[i], err = strconv.ParseFloat(s, 64); err != nil {
				tb.Fatal(err)
			}
		}
		return out
	}
	var X [][]float64
	var y, feat []float64
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "F" {
			feat = parse(fields[1:])
			continue
		}
		v := parse(fields)
		X = append(X, append(append([]float64(nil), feat...), v[0]))
		y = append(y, v[1])
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return X, y
}

// flatDigest hashes every node field of a flattened forest, gains included.
func flatDigest(fl *Flat) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, n := range fl.TreeNodes {
		put(uint64(n))
	}
	for i := range fl.Feature {
		put(uint64(fl.Feature[i]))
		put(math.Float64bits(fl.Thresh[i]))
		put(uint64(fl.Left[i]))
		put(uint64(fl.Right[i]))
		put(math.Float64bits(fl.Value[i]))
		put(math.Float64bits(fl.Gain[i]))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestTrainTiedGolden pins the forests grown on the tie-heavy matrix, one
// digest per trainConfigs() entry, recorded before the split search got its
// own sort: the order of tied keys sets the rounding of the prefix sums, so
// any change to the sort's permutation shows up here.
func TestTrainTiedGolden(t *testing.T) {
	X, y := tiedData(t)
	want := []string{
		"57d15a7af4c93816",
		"84f0e4218e95ec28",
		"56e124e87577633e",
		"feb59c77b12ffa76",
		"5479ec0995a4603f",
	}
	for ci, cfg := range trainConfigs() {
		f, err := Train(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := flatDigest(f.Flatten()); got != want[ci] {
			t.Errorf("config %d: forest digest %s, want %s", ci, got, want[ci])
		}
	}
}

// pairSorter is the split search's old sort.Sort adapter over (value,
// target) pairs, kept as the oracle sortPairs must match permutation for
// permutation, and as refBestSplit's sort.
type pairSorter struct {
	v, y []float64
}

func (s *pairSorter) Len() int           { return len(s.v) }
func (s *pairSorter) Less(i, j int) bool { return s.v[i] < s.v[j] }
func (s *pairSorter) Swap(i, j int) {
	s.v[i], s.v[j] = s.v[j], s.v[i]
	s.y[i], s.y[j] = s.y[j], s.y[i]
}

// checkSplitSort ranks keys with the production ranking, sorts the (rank,
// row) pairs, and fails unless the rows come out in the permutation
// sort.Sort gives the float64 keys (so +0 and -0, equal under <, must land
// in the same order). Ranking must refuse keys with a NaN or ±Inf.
func checkSplitSort(t *testing.T, name string, keys []float64) {
	t.Helper()
	ranks, _, err := rankColumn(keys)
	finite := true
	for _, v := range keys {
		finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if !finite {
		if err == nil {
			t.Fatalf("%s, n=%d: ranking accepted non-finite keys", name, len(keys))
		}
		return
	}
	if err != nil {
		t.Fatalf("%s, n=%d: %v", name, len(keys), err)
	}
	ref := pairSorter{v: append([]float64(nil), keys...), y: make([]float64, len(keys))}
	got := make([]pair, len(keys))
	for i := range keys {
		ref.y[i] = float64(i)
		got[i] = mkpair(ranks[i], uint32(i))
	}
	sort.Sort(&ref)
	sortPairs(got)
	for i := range got {
		if float64(got[i].row()) != ref.y[i] {
			t.Fatalf("%s, n=%d: position %d holds input %v (%v), sort.Sort put input %v (%v) there",
				name, len(keys), i, got[i].row(), keys[got[i].row()], ref.y[i], ref.v[i])
		}
	}
}

// antiqsort is McIlroy's adversary ("A Killer Adversary for Quicksort",
// 1999) run against sort.Sort: keys stay undecided ("gas") until a
// comparison needs them, and the undecided side of a comparison is always
// frozen smallest, so every pivot ends up near an end. Keys are frozen in
// pairs of equal values, so the fallback has ties to order too. The keys it
// settles on steer pdqsort through breakPatterns down to its heapSort
// fallback, and because both sorts make the same comparisons, they do so
// for sortPairs too.
type antiqsort struct {
	id, val   []int
	gas       int
	solid     int
	candidate int
}

func (a *antiqsort) Len() int      { return len(a.id) }
func (a *antiqsort) Swap(i, j int) { a.id[i], a.id[j] = a.id[j], a.id[i] }
func (a *antiqsort) Less(i, j int) bool {
	x, y := a.id[i], a.id[j]
	if a.val[x] == a.gas && a.val[y] == a.gas {
		if x == a.candidate {
			a.val[x] = a.solid / 2
		} else {
			a.val[y] = a.solid / 2
		}
		a.solid++
	}
	if a.val[x] == a.gas {
		a.candidate = x
	} else if a.val[y] == a.gas {
		a.candidate = y
	}
	return a.val[x] < a.val[y]
}

func antiqsortKeys(n int) []float64 {
	a := &antiqsort{id: make([]int, n), val: make([]int, n), gas: n}
	for i := range a.id {
		a.id[i], a.val[i] = i, n
	}
	sort.Sort(a)
	keys := make([]float64, n)
	for i, v := range a.val {
		keys[i] = float64(v)
	}
	return keys
}

// splitSortPatterns are the key shapes the split search meets (runs of
// equal feature values, ±0) and the ones that drive pdqsort off its
// quicksort path: presorted and reversed runs take the partial insertion
// sort, sawtooth and organ-pipe inputs unbalance partitions into
// breakPatterns, and antiqsortKeys reaches heapSort.
var splitSortPatterns = []struct {
	name string
	key  func(rng *xrand.Source, i, n int) float64
}{
	{"tied", func(rng *xrand.Source, i, n int) float64 { return float64(rng.Intn(1 + n/64)) }},
	{"per-field", func(rng *xrand.Source, i, n int) float64 { return float64((i * 7919 % n) / 35) }},
	{"signed-zero", func(rng *xrand.Source, i, n int) float64 {
		switch rng.Intn(3) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		}
		return 1
	}},
	{"sorted", func(rng *xrand.Source, i, n int) float64 { return float64(i) }},
	{"reversed", func(rng *xrand.Source, i, n int) float64 { return float64(n - i) }},
	{"sawtooth", func(rng *xrand.Source, i, n int) float64 { return float64(i % (1 + n/8)) }},
	{"organ-pipe", func(rng *xrand.Source, i, n int) float64 { return float64(min(i, n-i)) }},
	{"nearly-sorted", func(rng *xrand.Source, i, n int) float64 {
		if rng.Intn(50) == 0 {
			return rng.Float64() * float64(n)
		}
		return float64(i)
	}},
}

// TestSplitSortMatchesSortSort walks lengths 0–2000: every length up to
// 64, where the insertion-sort, median-of-three and ninther thresholds sit,
// then steps of n/64 (the length also seeds breakPatterns' xorshift).
func TestSplitSortMatchesSortSort(t *testing.T) {
	rng := xrand.New(3)
	for n := 0; n <= 2000; n += 1 + n/64 {
		for _, p := range splitSortPatterns {
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = p.key(rng, i, n)
			}
			checkSplitSort(t, p.name, keys)
		}
		checkSplitSort(t, "antiqsort", antiqsortKeys(n))
	}
}

// FuzzSplitSortMatchesReference feeds arbitrary float64 keys, NaN and ±Inf
// included, to checkSplitSort: finite keys must come out of the rank-keyed
// sort in sort.Sort's permutation, and keys with no total order must be
// refused by the ranking.
func FuzzSplitSortMatchesReference(f *testing.F) {
	le := func(vs ...float64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add([]byte{})
	f.Add(le(1, 1, 0, math.Copysign(0, -1), 2, 2, 2, -1, 0, 1, 1, 1, 1))
	f.Add(le(math.NaN(), 3, math.Inf(1), math.Inf(-1), 3, math.NaN(), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := make([]float64, len(data)/8)
		for i := range keys {
			keys[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkSplitSort(t, "fuzz", keys)
	})
}
