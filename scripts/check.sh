#!/bin/sh
# Tier-1 gate: everything must build, vet clean, pass with the race
# detector on (the rf engine, CV folds, batch prediction, Bayesian
# optimisation and feature extraction all fan out on pipeline.FanOut),
# give the pinned models and worker-count tests the same bits at
# GOMAXPROCS 1 and 4 (`make pinned`), and pass carollint — the repo's own
# determinism/float-discipline/bounded-concurrency analyzers (DESIGN.md §9).
set -eux

go build ./...
go vet ./...
go test -race ./...
make -s pinned
go run ./cmd/carollint ./...

# Non-test Go lines and internal packages (ROADMAP item 10: simplification
# PRs report both).
make -s loc
make -s pkgs
