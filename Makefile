.PHONY: check build vet lint test race loc

check: ## build + vet + race-enabled tests + carollint (the tier-1 gate)
	./scripts/check.sh

build:
	go build ./...

vet:
	go vet ./...

# The repo's own static-analysis suite (internal/analysis): determinism,
# float discipline, bounded concurrency, and the interprocedural safedec /
# pooling / metric-label disciplines. See DESIGN.md §9 and §14. Runs twice:
# production packages, then with _test.go files included.
lint:
	go run ./cmd/carollint ./...
	go run ./cmd/carollint -tests ./...

test:
	go test ./...

race:
	go test -race ./...

# The one canonical size of the codebase: non-test Go lines outside bench/
# and testdata/. ROADMAP item 10 tracks it per PR in CHANGES.md.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l
