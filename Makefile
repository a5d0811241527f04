.PHONY: check build vet lint test race loc bench-rf bench-model bench-codecs bench-gate bench-select bench-zoo

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
# and testdata/. ROADMAP item 4 tracks it per PR in CHANGES.md.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l

# The model-training benchmarks whose before/after numbers are committed to
# BENCH_RF.json.
bench-rf:
	go test -run '^$$' -bench 'BenchmarkTrain|BenchmarkCrossValidate|BenchmarkPredict' -benchmem ./internal/rf/

# The artifact load/predict benchmarks whose numbers are committed to
# BENCH_MODEL.json (carolserve's warm-load and serving hot paths).
bench-model:
	go test -run '^$$' -bench 'BenchmarkArtifact' -benchmem ./internal/model/

# Codec throughput through the block pipeline plus the huffman coder
# steady-state hot path; numbers committed to BENCH_CODECS.json.
bench-codecs:
	go test -run '^$$' -bench 'BenchmarkCodec(Compress|Decompress)|SteadyState' \
		-benchmem -benchtime 3x ./internal/pipeline/ ./internal/huffman/

# The fleet-routing benchmarks whose numbers are committed to
# BENCH_GATE.json: consistent-hash lookup and the gate's routing decision.
bench-gate:
	go test -run '^$$' -bench 'BenchmarkRing|BenchmarkGateRoute' -benchmem \
		./internal/ring/ ./cmd/carolgate/

# The adaptive-selection benchmarks whose numbers are committed to
# BENCH_SELECT.json: the lock-held decide/observe hot paths (must stay
# allocation-free) and the full surrogate-scored Select.
bench-select:
	go test -run '^$$' -bench 'BenchmarkAutoSelect' -benchmem ./internal/selector/

# The surrogate-zoo benchmarks whose numbers are committed to
# BENCH_ZOO.json: per-backend training (incl. the shared CV fold sweep)
# and batch prediction through the published artifact.
bench-zoo:
	go test -run '^$$' -bench 'BenchmarkZoo' -benchmem -benchtime 3x ./internal/zoo/
