package rf

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// tiedData loads testdata/tied_trainset.txt: a real training matrix whose
// five feature columns are constant per field and whose sixth is the
// log-ratio, so the split search sweeps long runs of equal keys. synthData
// has no ties and under-weights exactly the case whose summation order
// must be right.
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
// digest per trainConfigs() entry, recorded with the split search's sort
// order defined as (value, row): the order of tied keys sets the rounding
// of the prefix sums, so any change to that order shows up here.
func TestTrainTiedGolden(t *testing.T) {
	X, y := tiedData(t)
	want := []string{
		"697fef2a403fa671",
		"238066ccb2dcbe78",
		"338e48315fa3e7c4",
		"0b87694f693b5310",
		"0d37339c07bf780a",
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
