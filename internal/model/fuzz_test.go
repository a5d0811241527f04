package model

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"carol/internal/fuzzseed"
	"carol/internal/safedec"
)

// fuzzLimits keeps per-exec memory small so the mutator's budget goes to
// coverage, not to zeroing node arrays a hostile header claimed.
var fuzzLimits = safedec.Limits{MaxElements: 1 << 18, MaxAlloc: 1 << 24, MaxCount: 1 << 10}

// retiredSeeds are the corpus seeds written when the table still held the
// knn backend (a valid artifact, its truncation and its bit flip). No
// encoder here can produce them any more, so they are replayed from the
// checked-in files: real stored bytes of the retired tag.
var retiredSeeds = []int{7, 9, 11}

// checkedInSeed reads seed i of the FuzzModelRead corpus: a version line,
// then one `[]byte("...")` line.
func checkedInSeed(t testing.TB, i int) []byte {
	t.Helper()
	raw, err := os.ReadFile(fmt.Sprintf("testdata/fuzz/FuzzModelRead/seed-%02d", i))
	if err != nil {
		t.Fatal(err)
	}
	line := strings.Split(string(raw), "\n")[1]
	quoted := strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")")
	text, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("seed %d: %v", i, err)
	}
	return []byte(text)
}

// modelFuzzSeeds returns one valid artifact per backend tag (rf, boost),
// a legacy version-1 stream, the retired knn seeds, plus the classic
// mutations: truncations, a mid-stream bit flip, and a bare header.
func modelFuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	valid := withCalib(t, testArtifact(t), legacyCalib)
	flip := append([]byte(nil), valid...)
	flip[len(flip)/3] ^= 0xFF
	minimal := testArtifact(t)
	minimal.Meta = nil
	boostValid := mustEncode(t, boostArtifact(t))
	boostFlip := append([]byte(nil), boostValid...)
	boostFlip[len(boostFlip)/2] ^= 0xFF
	return [][]byte{
		valid,
		mustEncode(t, minimal),
		valid[:len(valid)/2],
		valid[:16],
		flip,
		[]byte(Magic),
		boostValid,
		checkedInSeed(t, 7),
		boostValid[:len(boostValid)/2],
		checkedInSeed(t, 9),
		boostFlip,
		checkedInSeed(t, 11),
		encodeV1(t, testArtifact(t)),
	}
}

// FuzzModelRead asserts the artifact reader's hostility contract:
// arbitrary bytes in, classified error or valid artifact out, never a
// panic, allocations bounded by fuzzLimits. When a stream does parse, it
// must re-encode deterministically (a parse-accepting mutation that broke
// determinism would corrupt the registry's checksums downstream).
func FuzzModelRead(f *testing.F) {
	for _, s := range modelFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadLimited(data, fuzzLimits)
		if err != nil {
			if safedec.Classify(err) == "" {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		one, err := a.Encode()
		if err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		two, err := a.Encode()
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if string(one) != string(two) {
			t.Fatal("re-encode of accepted artifact is not deterministic")
		}
	})
}

// TestFuzzCorpusCheckedIn regenerates the seed corpus under
// CAROL_WRITE_CORPUS, and otherwise fails if it has gone missing.
func TestFuzzCorpusCheckedIn(t *testing.T) {
	fuzzseed.Check(t, ".", map[string][][]byte{"FuzzModelRead": modelFuzzSeeds(t)})
}

// TestFuzzCorpusPinsFormat treats the checked-in corpus as the wire-format
// pin: it was written by an earlier encoder, so today's encoder must
// reproduce every seed byte for byte from the same fixtures, and every
// seed that is a valid stream must decode and (for the current format
// version) re-encode to exactly its own bytes, less the calibration table
// the reader skips. The retired knn seeds must be refused as corrupt,
// naming their tag.
func TestFuzzCorpusPinsFormat(t *testing.T) {
	if fuzzseed.Regenerate() {
		t.Skip("corpus is being regenerated")
	}
	decoded := 0
	for i, want := range modelFuzzSeeds(t) {
		seed := checkedInSeed(t, i)
		if !bytes.Equal(seed, want) {
			t.Fatalf("seed %d: today's encoder no longer reproduces the checked-in bytes", i)
		}
		a, err := Read(seed)
		if slices.Contains(retiredSeeds, i) {
			if !errors.Is(err, safedec.ErrCorrupt) || !strings.Contains(err.Error(), `unknown backend tag "knn"`) {
				t.Fatalf("seed %d: retired knn artifact: error %v, want ErrCorrupt naming the tag", i, err)
			}
			continue
		}
		if err != nil {
			continue
		}
		decoded++
		if version := seed[len(Magic)]; version == FormatVersion && !bytes.Equal(mustEncode(t, a), seed) &&
			!bytes.Equal(withCalib(t, a, legacyCalib), seed) {
			t.Fatalf("seed %d: re-encode differs from the checked-in bytes", i)
		}
	}
	// Valid seeds: rf, rf-minimal, boost, and the v1 stream.
	if decoded != 4 {
		t.Fatalf("%d corpus seeds decode, want 4", decoded)
	}
}
