#!/bin/sh
# Short-budget fuzzing sweep over every fuzz target in the repo. Each target
# gets FUZZTIME (default 20s) of coverage-guided mutation on top of the
# checked-in seed corpus; any crasher fails the script and leaves the
# reproducer under the package's testdata/fuzz/ directory for triage.
#
# Usage: scripts/fuzz.sh [fuzztime]
set -eu

FUZZTIME="${1:-20s}"

run() {
	pkg="$1"
	target="$2"
	echo "==> go test -fuzz=^${target}\$ -fuzztime=${FUZZTIME} ${pkg}"
	go test -fuzz="^${target}\$" -fuzztime="${FUZZTIME}" "${pkg}"
}

run ./internal/codecs FuzzDecompressSZx
run ./internal/codecs FuzzDecompressZFP
run ./internal/codecs FuzzDecompressSZ3
run ./internal/codecs FuzzDecompressSPERR
run ./internal/codecs FuzzDecompressSZP
run ./internal/codecs FuzzCompressRoundTrip
run ./internal/bitstream FuzzReaderOps
run ./internal/zfp FuzzPlanes
run ./internal/huffman FuzzHuffmanTable
run ./internal/sperr FuzzSPECKMatchesReference
run ./internal/wavelet FuzzGridMatchesReference
run ./internal/sz3 FuzzInterpMatchesReference
run ./internal/field FuzzMinMaxMatchesReference
run ./internal/field FuzzScanMatchesReference
run ./internal/field FuzzReadRawMatchesReference
run ./internal/rf FuzzSplitSearchMatchesReference
run ./internal/xrand FuzzFBmMatchesReference
run ./internal/xrand FuzzFBmRowMatchesReference
run ./internal/archive FuzzArchiveRead
run ./internal/chunked FuzzChunkedDecompress
run ./internal/model FuzzModelRead
run ./internal/selector FuzzAutoSelect

echo "fuzz sweep clean"
