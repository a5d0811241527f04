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

# Non-test Go lines (ROADMAP item 10: simplification PRs must move this down).
make -s loc
