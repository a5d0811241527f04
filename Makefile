.PHONY: check build vet lint test race loc

check: ## build + vet + race-enabled tests + carollint (the tier-1 gate)
	./scripts/check.sh

build:
	go build ./...

vet:
	go vet ./...

# The repo's own static-analysis suite (internal/analysis) over non-test
# files: determinism, float discipline, bounded concurrency, error hygiene
# and the interprocedural pooling discipline. See DESIGN.md §9 and §14.
lint:
	go run ./cmd/carollint ./...

test:
	go test ./...

race:
	go test -race ./...

# The one canonical size of the codebase: non-test Go lines outside bench/
# and testdata/. ROADMAP item 10 tracks it per PR in CHANGES.md.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l
