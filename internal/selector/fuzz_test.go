package selector

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"carol/internal/codecs"
	"carol/internal/field"
	"carol/internal/fuzzseed"
)

// autoSelectSeeds builds the checked-in seed corpus for FuzzAutoSelect:
// two unread bytes (they seeded and tuned a selector that no longer has
// either knob; the corpus keeps them so it replays byte for byte), packed
// small dims, an eb exponent, a target byte, then raw float32 samples.
func autoSelectSeeds() [][]byte {
	base := make([]byte, 7+4*64)
	base[0], base[1] = 1, 10
	base[2], base[3], base[4] = 16, 4, 2
	base[5], base[6] = 3, 8
	for i := 0; i < 64; i++ {
		binary.LittleEndian.PutUint32(base[7+4*i:], math.Float32bits(float32(math.Sin(float64(i)/5))))
	}
	var out [][]byte
	out = append(out, base)

	flat := append([]byte(nil), base...)
	for i := 0; i < 64; i++ {
		binary.LittleEndian.PutUint32(flat[7+4*i:], math.Float32bits(2.5))
	}
	out = append(out, flat)

	hostile := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(hostile[7:], math.Float32bits(float32(math.NaN())))
	binary.LittleEndian.PutUint32(hostile[11:], math.Float32bits(float32(math.Inf(1))))
	out = append(out, hostile, base[:9], []byte{0})
	return out
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/ when CAROL_WRITE_CORPUS is set; otherwise it asserts the
// corpus exists.
func TestWriteFuzzCorpus(t *testing.T) {
	fuzzseed.Check(t, ".", map[string][][]byte{
		"FuzzAutoSelect": autoSelectSeeds(),
	})
}

// FuzzAutoSelect asserts the selector's totality contract on arbitrary
// inputs: whatever field, error bound, target and achieved-ratio bytes the
// fuzzer constructs, Select must never panic and never return a codec
// outside the configured set, and Observe must absorb arbitrary (including
// non-finite) outcomes without moving a later decision.
func FuzzAutoSelect(f *testing.F) {
	for _, s := range autoSelectSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		sel, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		known := make(map[string]bool)
		for _, n := range codecs.ExtendedNames {
			known[n] = true
		}
		nx := int(data[2])%32 + 1
		ny := int(data[3])%8 + 1
		nz := int(data[4])%4 + 1
		eb := math.Pow(10, -float64(int(data[5])%8)) // 1 .. 1e-7
		target := float64(data[6]) / 8               // 0 .. 31.9
		fld := field.New("fuzz", nx, ny, nz)
		samples := data[7:]
		for i := range fld.Data {
			if 4*i+4 <= len(samples) {
				fld.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(samples[4*i:]))
			} else {
				fld.Data[i] = float32(i % 13)
			}
		}
		dec, err := sel.Select(fld, eb, target)
		if err != nil {
			return // non-finite samples are rejected up front; that's fine
		}
		if !known[dec.Codec] {
			t.Fatalf("Select returned unregistered codec %q", dec.Codec)
		}
		// Feed an arbitrary outcome back — including NaN/Inf bit patterns —
		// then select again: the answer must not move.
		actual := float64(math.Float32frombits(binary.LittleEndian.Uint32(data[2:6])))
		sel.Observe(dec, actual)
		dec2, err := sel.Select(fld, eb, target)
		if err != nil {
			t.Fatalf("second Select failed after Observe(%g): %v", actual, err)
		}
		if !reflect.DeepEqual(dec2, dec) {
			t.Fatalf("Select moved after Observe(%g): %+v then %+v", actual, dec, dec2)
		}
	})
}
