.PHONY: check build vet lint test race pinned loc pkgs

check: ## build + vet + race-enabled tests + carollint (the tier-1 gate)
	./scripts/check.sh

build:
	go build ./...

vet:
	go vet ./...

# The repo's own static-analysis suite (internal/analysis) over non-test
# files: determinism, float discipline, bounded concurrency, pooled scratch
# on zpool.FreeList and error hygiene, one package at a time. See DESIGN.md
# §9 and §14.
lint:
	go run ./cmd/carollint ./...

test:
	go test ./...

race:
	go test -race ./...

# Bit-identical on any host: the pinned models, every worker-count test
# (rf engine, feature scan, collection) and carolserve's ratio= against the
# in-process ratio resolver, at one core and at four, so no output bit may
# move with GOMAXPROCS (DESIGN.md §8).
pinned:
	for p in 1 4; do \
		GOMAXPROCS=$$p go test -count=1 -run 'Pinned|WorkersBitIdentical|TestRunMatchesInProcessTraining|FrontDoors' \
			./internal/core ./cmd/caroltrain ./internal/rf ./internal/features ./cmd/carolserve || exit 1; \
	done

# The one canonical size of the codebase: non-test Go lines outside bench/
# and testdata/. ROADMAP item 10 tracks it per PR in CHANGES.md.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l

# The number of internal packages; ROADMAP item 10 tracks it beside loc.
pkgs:
	@go list ./internal/... | wc -l
