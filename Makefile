# Makefile — developer entry points. The go toolchain is the only
# dependency.

.PHONY: build test test-short race bench bench-fig bench-baseline bench-module profile vet matrix fuzz-trace fuzz-store fuzz-fabric serve smoke-serve smoke-fabric lint-docs audit api-update

# Packages whose exported symbols must all carry godoc comments (the
# public package, the documented internals, and the service layers).
DOC_PKGS = . internal/trace internal/workload internal/sched internal/stats internal/cache internal/server internal/sim internal/model internal/store internal/fabric internal/fabric/faultproxy internal/bpred

build:
	go build ./...

vet:
	go vet ./...

# Full test suite, including the slow campaign smoke (minutes).
test:
	go test ./...

# The CI gate: under two minutes, race-clean.
test-short:
	go test -short -race ./...

race: test-short

# Every benchmark once (the figure benches double as the smoke campaign).
bench:
	go test -run='^$$' -bench=. -benchtime=1x .

# Just the figure campaign (the wall-clock acceptance metric).
bench-fig:
	go test -run='^$$' -bench=Fig -benchtime=1x .

# Vet and short-test the benchmark module. ltpbench/ is its own Go
# module (root go build/test ./... never compiles it), yet it imports
# internal packages, so an internal API change can break it silently.
bench-module:
	cd ltpbench && go vet . && go test -short .

# Record a BENCH_<n>.json trajectory point (see EXPERIMENTS.md).
bench-baseline:
	sh scripts/record_bench.sh

# Profile a representative campaign: CPU + allocation profiles of the
# matrix experiment land in ./profiles for go tool pprof.
profile:
	mkdir -p profiles
	go run ./cmd/ltpexperiments -exp matrix -quick -cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof
	@echo "profiles written: go tool pprof profiles/cpu.pprof"

# The scenario-matrix campaign at laptop-scale budgets (mean ± 95% CI
# over seed replicates; see EXPERIMENTS.md "Scenario-matrix workflow").
matrix:
	go run ./cmd/ltpexperiments -exp matrix -seeds 5

# Fuzz the trace codec for a minute.
fuzz-trace:
	go test -run='^$$' -fuzz=FuzzTraceRoundTrip -fuzztime=60s ./internal/trace/

# Fuzz the persistent result store for a minute: derived records must
# round-trip bit-identically, and arbitrary bytes opened as a store
# file must never panic (DESIGN.md §12).
fuzz-store:
	go test -run='^$$' -fuzz=FuzzStoreRoundTrip -fuzztime=60s ./internal/store/

# Fuzz the coordinator's worker-response decoders for a minute:
# arbitrary bytes off the wire — cell-event streams and stats bodies —
# must error, never panic (DESIGN.md §13).
fuzz-fabric:
	go test -run='^$$' -fuzz=FuzzWorkerDecode -fuzztime=60s ./internal/fabric/

# The campaign service (API.md documents the endpoints; DESIGN.md §8
# the architecture). Ctrl-C drains gracefully.
serve:
	go run ./cmd/ltpserved -addr :8080

# End-to-end service smoke: build + boot ltpserved, submit a quick
# matrix twice, assert the resubmission is served from the cache, then
# SIGKILL a store-backed server and assert the restart serves the same
# campaign entirely from disk.
smoke-serve:
	go run ./scripts/servesmoke

# End-to-end fabric smoke: boot 1 coordinator + 3 worker processes,
# SIGKILL a worker mid-campaign, assert the campaign completes with
# every cell delivered exactly once (DESIGN.md §13).
smoke-fabric:
	go run ./scripts/fabricsmoke

# The CI docs gate: vet plus the missing-godoc check on DOC_PKGS.
lint-docs:
	go vet ./...
	go run ./scripts/godoclint $(DOC_PKGS)

# The CI hygiene gate: formatting, vet, and the exported-API snapshot
# (scripts/apidiff fails on any undocumented breaking change to the
# public package; regenerate deliberately with `make api-update`).
audit:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt: needs formatting:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	go run ./scripts/apidiff

# Regenerate api.txt after a deliberate public-API change.
api-update:
	go run ./scripts/apidiff -update
