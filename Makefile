# Developer entry points mirroring the CI pipeline (.github/workflows/ci.yml).
# `make ci` runs the same gate the workflow enforces on every push/PR.

GO ?= go

.PHONY: build test bench-test race vet bench bench-repo bench-compare serve fmt-check fuzz soak ci

# Per-target budget for `make fuzz`; CI uses 60s per target.
FUZZTIME ?= 30s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repo benchmark (bench/, BENCHMARK.json) is its own module, so
# `go test ./...` at the root does not reach its unit tests.
bench-test:
	cd bench && $(GO) test ./...

# The race detector multiplies runtime ~10x, so restrict it to the internal
# packages (where all shared mutable state lives) and the -short variants of
# the churn tests.
race:
	$(GO) test -race -short -timeout=45m ./internal/...

# The engine counts storage work; internal/experiments models it. No device
# model may appear in internal/core's non-test code.
vet:
	$(GO) vet ./...
	@! grep -rnE 'store\.(DiskModel|RAM|SSD|HDD7200)\b' internal/core --include='*.go' --exclude='*_test.go'

# Bench smoke: one iteration of every benchmark proves the measurement
# harness still compiles and runs; it is not a performance gate.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./...

# The repo benchmark (BENCHMARK.json, bench/README.md): all four workloads
# once, every end-to-end metric, results under .bench_build/results/head.
bench-repo:
	bash bench/run.sh --workload all --seed 1 --out .bench_build/results/head

# Paired comparison of the working tree against another commit, the only
# form of perf gate this host's 15-45% run-to-run spread allows: BASE is
# checked out into a scratch worktree, then PAIRS alternating runs of all
# four workloads (pair i uses seed i on both sides; which side goes first
# flips every pair) feed `bench compare`, which exits 1 if any end-to-end
# metric is worse than its BENCHMARK.json bound.
PAIRS ?= 3
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<git ref> [PAIRS=$(PAIRS)]" >&2; exit 2; }
	rm -rf .bench_build/results/base .bench_build/results/head
	git worktree add --detach .bench_build/base $(BASE)
	trap 'git worktree remove --force .bench_build/base' EXIT; \
	res=$$PWD/.bench_build/results; \
	run() { (cd $$1 && bash bench/run.sh --workload all --seed $$3 --out $$res/$$2); }; \
	for i in $$(seq $(PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then \
			run .bench_build/base base $$i && run . head $$i; \
		else \
			run . head $$i && run .bench_build/base base $$i; \
		fi || exit 1; \
	done; \
	bash bench/run.sh compare $$res/base $$res/head

# Boot a demo daemon over a small synthetic corpus. Ctrl-C drains and
# writes fastd.snapshot for the next run.
serve:
	$(GO) run ./cmd/fastd -addr 127.0.0.1:8093 -photos 120 -scenes 6 -final-snapshot fastd.snapshot

# Run every native fuzz target for FUZZTIME each (override: make fuzz
# FUZZTIME=5m). Seed corpora live under each package's testdata/fuzz/.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeImage$$' -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeQueryRequest$$' -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzReadEngine$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzReadManifest$$' -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz='^FuzzCuckooInsertDelete$$' -fuzztime=$(FUZZTIME) ./internal/cuckoo
	$(GO) test -run='^$$' -fuzz='^FuzzJaccardKernels$$' -fuzztime=$(FUZZTIME) ./internal/bloom

# Failpoint soak: every fault-injection suite (snapshot crash matrix,
# chunk-store crash matrix + GC interleavings, generation rotation,
# injected 429/503 bursts, transport faults, cuckoo exhaustion,
# interrupted catch-up streams, router fan-out/merge faults, tiered
# migration crash matrix + cold-tier churn) and the rebuild-oracle
# read-view checks, repeated under the race detector.
soak:
	$(GO) test -race -count=3 ./internal/failpoint/
	$(GO) test -race -count=3 -timeout=30m \
		-run='ViewMatchesRebuild|CrashRecovery|Generations|Injected|Recovery|Retry|Deadline|Transport|Interleaving|Churn|Interrupted|Fanout|PartialAndQuorum|Replica|RingUpdate|RingTransition' \
		./internal/core/ ./internal/store/ ./internal/cuckoo/ ./internal/client/ ./internal/router/ ./internal/replica/ ./internal/tiered/

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: fmt-check build vet test bench-test race bench
	@echo "ci: all checks passed"
