#!/bin/sh
# Tier-1 gate: everything must build, vet clean, pass with the race
# detector on (the rf engine, CV folds, batch prediction and feature
# extraction all run goroutine pools), and pass carollint — the repo's own
# determinism/float-discipline/bounded-concurrency analyzers (DESIGN.md §9).
set -eux

go build ./...
go vet ./...
go test -race ./...
go run ./cmd/carollint ./...
go run ./cmd/carollint -tests ./...

# Replay the checked-in fuzz seed corpora as plain tests (no mutation): every
# seed under testdata/fuzz/ must decode-or-reject without panicking.
go test -run '^Fuzz' ./internal/codecs ./internal/bitstream ./internal/zfp ./internal/huffman ./internal/archive ./internal/chunked ./internal/model ./internal/selector

# Non-test Go lines (ROADMAP item 4: simplification PRs must move this down).
make -s loc
