package codecs

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/zfp"
)

// goldenFile holds one "<case> <sha256(stream)> <sha256(decoded)>" line per
// case. It was recorded at commit 4de5f0bea084ddd824b405b4041a83396b3a8bb7
// (PR 17), before the word-at-a-time bit I/O of PR 19 touched any codec, and
// is the cross-commit half of the conformance suite: the suite proves a
// stream equals itself on a second call, this file proves it equals what the
// tree produced before. A kernel PR must leave it alone; only a deliberate
// format change regenerates it (CAROL_WRITE_GOLDEN=1) and says so.
const goldenFile = "testdata/golden_digests.txt"

// goldenCases computes the digest pair of every case: each ExtendedNames
// codec × conformanceFields(4242) × rel 1e-1…1e-6, plus the ZFP fixed-rate
// mode at four rates (8.5 exercises a budget that is not a whole byte).
func goldenCases(t *testing.T) map[string][2]string {
	t.Helper()
	fields := conformanceFields(4242)
	out := map[string][2]string{}
	digest := func(stream []byte, g *field.Field) [2]string {
		s := sha256.Sum256(stream)
		h := sha256.New()
		var b [4]byte
		for _, v := range g.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
		return [2]string{hex.EncodeToString(s[:]), hex.EncodeToString(h.Sum(nil))}
	}
	for _, codec := range allExtended(t) {
		for _, f := range fields {
			for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-6} {
				key := fmt.Sprintf("%s/%s/rel=%g", codec.Name(), f.Name, rel)
				stream, err := codec.Compress(f, compressor.AbsBound(f, rel))
				if err != nil {
					t.Fatalf("%s: compress: %v", key, err)
				}
				g, err := codec.Decompress(stream)
				if err != nil {
					t.Fatalf("%s: decompress: %v", key, err)
				}
				out[key] = digest(stream, g)
			}
		}
	}
	for _, f := range fields {
		for _, rate := range []float64{1, 4, 8.5, 16} {
			key := fmt.Sprintf("zfp-fr/%s/rate=%g", f.Name, rate)
			stream, err := zfp.CompressFixedRate(f, rate)
			if err != nil {
				t.Fatalf("%s: compress: %v", key, err)
			}
			g, err := zfp.DecompressFixedRate(stream)
			if err != nil {
				t.Fatalf("%s: decompress: %v", key, err)
			}
			out[key] = digest(stream, g)
		}
	}
	return out
}

// TestGoldenDigests pins every codec's stream bytes and decoded samples to
// the digests recorded in goldenFile.
func TestGoldenDigests(t *testing.T) {
	got := goldenCases(t)
	if os.Getenv("CAROL_WRITE_GOLDEN") != "" {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s %s\n", k, got[k][0], got[k][1])
		}
		if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fh, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	seen := 0
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		parts := strings.Fields(sc.Text())
		if len(parts) != 3 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		seen++
		g, ok := got[parts[0]]
		if !ok {
			t.Errorf("%s: recorded case no longer produced", parts[0])
			continue
		}
		if g[0] != parts[1] {
			t.Errorf("%s: stream bytes changed (sha256 %s, recorded %s)", parts[0], g[0], parts[1])
		}
		if g[1] != parts[2] {
			t.Errorf("%s: decoded samples changed (sha256 %s, recorded %s)", parts[0], g[1], parts[2])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(got) {
		t.Errorf("golden file has %d cases, suite produces %d", seen, len(got))
	}
}
