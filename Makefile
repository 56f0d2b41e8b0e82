# Developer entry points mirroring the CI pipeline (.github/workflows/ci.yml).
# `make ci` runs the same gate the workflow enforces on every push/PR.

GO ?= go

.PHONY: build test bench-test race vet bench bench-ingest bench-serve bench-cache bench-query bench-snapshot bench-cluster bench-tiered bench-gate serve fmt-check fuzz soak ci

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

vet:
	$(GO) vet ./...

# Bench smoke: one iteration of every benchmark proves the measurement
# harness still compiles and runs; it is not a performance gate.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./...

# Ingest throughput sweep: streams the Wuhan corpus through the staged
# parallel pipeline (Engine.InsertBatch) at 1/4/GOMAXPROCS workers and
# writes BENCH_ingest.json for artifact tracking.
bench-ingest:
	$(GO) run ./cmd/fastbench -exp ingest -scale 60000

# Serving benchmark: boots the HTTP serving layer on a loopback listener,
# drives it with 64 concurrent clients in naive (window=0) and coalesced
# modes, verifies the answers match, and writes BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/fastbench -exp serve -scale 60000

# Read-path cache sweep: replays a probe stream at 0/50/90% reuse with the
# cache tiers off and cold-on, verifies every cached answer byte-identical
# to a cold recompute, and writes BENCH_cache.json. The identity check is a
# hard gate: any divergence fails the run.
bench-cache:
	$(GO) run ./cmd/fastbench -exp cache -scale 60000

# Query throughput baseline: the QueryBatch worker sweep, written to
# BENCH_query.json (QPS + p50/p95/p99) for run-over-run tracking.
bench-query:
	$(GO) run ./cmd/fastbench -exp qps -scale 60000

# Snapshot cost sweep: writes chunked generations at 0/1/5/50% insert churn,
# compares bytes/generation against monolithic rewrites, verifies every
# level recovers byte-identical, and writes BENCH_snapshot.json. The ≤5%
# churn levels must dedup ≥10x or the run fails. Runs at scale 20000 (the
# 1050-photo Wuhan corpus) so snapshots split into enough chunks for the
# dedup measurement to be meaningful.
bench-snapshot:
	$(GO) run ./cmd/fastbench -exp snapshot -scale 20000

# Cluster tier: 3 HTTP shards behind the fan-out router vs a single-node
# oracle (answers must be byte-identical through the wire), degradation
# through shard kills (partial, then quorum loss), and replica chunk-diff
# catch-up, written to BENCH_cluster.json. The incremental catch-up must
# move <25% of a full snapshot at ~5% churn or the run fails. Runs at
# scale 20000 (1050 photos) so the gate is enforced.
bench-cluster:
	$(GO) run ./cmd/fastbench -exp cluster -scale 20000

# Tiered-index benchmark: an all-RAM oracle vs a tiered engine serving a
# corpus ~12x larger than its hot watermark from mmap'd cold segments.
# Answers at every stage (migration, churn, compaction) must be
# byte-identical to the oracle, the corpus must be ≥10x the watermark, and
# tiered qps must stay within 10x of all-RAM — all three are hard gates
# inside the experiment. Runs at scale 20000 (1050 photos) so the scale
# gates are enforced; writes BENCH_tiered.json.
bench-tiered:
	$(GO) run ./cmd/fastbench -exp tiered -scale 20000

# Perf-regression gate: re-measure the query sweep into a scratch directory
# and compare it against the committed BENCH_query.json baseline. Fails on a
# >20% qps drop or a p99 blowup on any common worker count — the same check
# the CI perf-gate job enforces. Refresh the baseline with `make bench-query`
# (which overwrites BENCH_query.json in place) when a change legitimately
# moves throughput.
bench-gate:
	@mkdir -p .benchgate
	$(GO) run ./cmd/fastbench -exp qps -scale 60000 -artifacts .benchgate
	$(GO) run ./cmd/benchgate -baseline BENCH_query.json -candidate .benchgate/BENCH_query.json

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

# Failpoint soak: every fault-injection suite (snapshot crash matrix,
# chunk-store crash matrix + GC interleavings, generation rotation,
# injected 429/503 bursts, transport faults, cuckoo exhaustion/rehash,
# interrupted catch-up streams, router fan-out/merge faults, tiered
# migration crash matrix + cold-tier churn) repeated under the race
# detector.
soak:
	$(GO) test -race -count=3 ./internal/failpoint/
	$(GO) test -race -count=3 -timeout=30m \
		-run='CrashRecovery|Generations|Injected|Recovery|Retry|Deadline|Transport|Interleaving|Churn|Interrupted|Fanout|PartialAndQuorum|Replica|RingUpdate|RingTransition' \
		./internal/core/ ./internal/store/ ./internal/cuckoo/ ./internal/client/ ./internal/router/ ./internal/replica/ ./internal/tiered/

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: fmt-check build vet test bench-test race bench
	@echo "ci: all checks passed"
