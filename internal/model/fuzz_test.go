package model

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"carol/internal/fuzzseed"
	"carol/internal/safedec"
)

// fuzzLimits keeps per-exec memory small so the mutator's budget goes to
// coverage, not to zeroing node arrays a hostile header claimed.
var fuzzLimits = safedec.Limits{MaxElements: 1 << 18, MaxAlloc: 1 << 24, MaxCount: 1 << 10}

// modelFuzzSeeds returns one valid artifact per backend tag (rf, boost,
// knn — all three payload layouts), a legacy version-1 stream, plus the
// classic mutations: truncations, a mid-stream bit flip, and a bare
// header.
func modelFuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	valid := mustEncode(t, testArtifact(t))
	flip := append([]byte(nil), valid...)
	flip[len(flip)/3] ^= 0xFF
	minimal := testArtifact(t)
	minimal.Calib = nil
	minimal.Meta = nil
	boostValid := mustEncode(t, boostArtifact(t))
	knnValid := mustEncode(t, knnArtifact(t))
	boostFlip := append([]byte(nil), boostValid...)
	boostFlip[len(boostFlip)/2] ^= 0xFF
	knnFlip := append([]byte(nil), knnValid...)
	knnFlip[len(knnFlip)/2] ^= 0xFF
	return [][]byte{
		valid,
		mustEncode(t, minimal),
		valid[:len(valid)/2],
		valid[:16],
		flip,
		[]byte(Magic),
		boostValid,
		knnValid,
		boostValid[:len(boostValid)/2],
		knnValid[:len(knnValid)/2],
		boostFlip,
		knnFlip,
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
// version) re-encode to exactly its own bytes.
func TestFuzzCorpusPinsFormat(t *testing.T) {
	if fuzzseed.Regenerate() {
		t.Skip("corpus is being regenerated")
	}
	decoded := 0
	for i, want := range modelFuzzSeeds(t) {
		raw, err := os.ReadFile(fmt.Sprintf("testdata/fuzz/FuzzModelRead/seed-%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		// Corpus file: version line, then one `[]byte("...")` line.
		line := strings.Split(string(raw), "\n")[1]
		quoted := strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")")
		text, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		seed := []byte(text)
		if !bytes.Equal(seed, want) {
			t.Fatalf("seed %d: today's encoder no longer reproduces the checked-in bytes", i)
		}
		a, err := Read(seed)
		if err != nil {
			continue
		}
		decoded++
		if version := seed[len(Magic)]; version == FormatVersion && !bytes.Equal(mustEncode(t, a), seed) {
			t.Fatalf("seed %d: re-encode differs from the checked-in bytes", i)
		}
	}
	// Valid seeds: rf, rf-minimal, boost, knn, and the v1 stream.
	if decoded != 5 {
		t.Fatalf("%d corpus seeds decode, want 5", decoded)
	}
}
