# TReX build/test targets. `make build test` is the tier-1 verification
# flow; `make race` is part of the documented pre-merge checks now that
# the storage read path serves concurrent readers lock-free.

GO ?= go

.PHONY: all build test race vet profile bench bench-compare bench-parallel bench-suite-log loc test-telemetry test-segment test-frontdoor test-planner test-cluster test-json test-ingest fuzz soak soak-cluster ci run-serve-autopilot

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector, including the
# multi-goroutine query stress tests (concurrency_test.go) and the
# storage-level concurrent cursor tests.
race:
	$(GO) test -race ./...

# vet fails, listing the files, when gofmt would reformat any. It also
# guards the query path against the reflection sort and the interface heap
# coming back: retrieval, the list iterators, query.go and combine.go sort
# with slices.SortFunc and sift their heaps with typed code (DESIGN.md,
# "Merge pass").
QUERY_PATH_GO = $(filter-out %_test.go,$(wildcard internal/retrieval/*.go internal/index/*.go)) query.go combine.go
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo 'vet: gofmt -l lists files that are not gofmt-formatted:'; echo "$$unformatted"; exit 1; \
	fi
	@if grep -n -e 'sort\.Slice(' -e '"container/heap"' $(QUERY_PATH_GO); then \
		echo 'vet: sort.Slice / container/heap on the query path (use slices.SortFunc and a typed sift)'; exit 1; \
	fi

# profile is the profile-led loop of ROADMAP item 3 as one command: run the
# root `go test -bench` figures matching BENCH under the CPU and heap
# profilers, leave the binary and both profiles in .bench_build/, and print
# the cumulative CPU top. BENCH=ReplanAfterCommit/half profiles the write
# path's re-plan as serve_http runs it (what the benchmark's replan_p50_ms
# times: a shared-pair workload at half budget, most candidates dropped),
# BENCH=ReplanAfterCommit/unlimited the same with every list kept,
# BENCH=ServeLadder the read path's serve loop (what the qps of paper_grid
# and cold_base times), BENCH=Create the base build (what setup_s and
# peak_rss_mb are set by).
# Look closer with
#   go tool pprof -list 'MergeCtx' .bench_build/trex.test .bench_build/cpu.prof
#   go tool pprof -sample_index=alloc_space -top .bench_build/trex.test .bench_build/mem.prof
BENCH ?= Figure5Q260/merge
profile:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -o .bench_build/trex.test \
		-cpuprofile .bench_build/cpu.prof -memprofile .bench_build/mem.prof .
	$(GO) tool pprof -top -cum -nodecount 40 .bench_build/trex.test .bench_build/cpu.prof

# bench runs the repository's benchmark (BENCHMARK.json, benchmark/): all
# four workloads, every end-to-end metric, the checker. BENCH_ARGS passes
# flags through, e.g. BENCH_ARGS='-trace' for the per-layer metrics or
# BENCH_ARGS='-out after.json' to record a run for bench-compare. The `go
# test -bench` sweep is bench-suite-log.
bench:
	$(GO) run ./benchmark -workload all $(BENCH_ARGS)

# bench-compare prints two recorded runs side by side, metric by metric,
# against the bounds in BENCHMARK.json:
#   make bench-compare BEFORE=before.json AFTER=after.json
bench-compare:
	$(GO) run ./benchmark -compare $(BEFORE) $(AFTER)

# bench-parallel runs just the concurrency-scaling benchmarks (aggregate
# QPS + cache hit ratio) at several GOMAXPROCS values.
bench-parallel:
	$(GO) test -run xxx -bench 'Parallel|ShardCount' -cpu 1,4 ./internal/storage/ .

# bench-suite-log re-runs the full `go test -bench` sweep and captures
# the raw tool output for local inspection. The log is generated on
# demand and not committed; recorded results live in EXPERIMENTS.md.
bench-suite-log:
	$(GO) test -bench . -benchmem ./... | tee bench_output_suite.txt

# loc prints the non-test and test Go line counts, the size figures
# ROADMAP item 2's gate counts.
loc:
	@find . -name '*.go' -not -path './.git/*' | grep -v '_test\.go$$' | xargs cat | wc -l | sed 's/^/non-test: /'
	@find . -name '*.go' -not -path './.git/*' | grep '_test\.go$$' | xargs cat | wc -l | sed 's/^/test:     /'

# test-segment is the segment-backend gate: the format/reader unit suite
# (including the mmap lifecycle and zero-alloc assertions), the engine
# integration tests (pager/segment ranking equivalence, read-your-writes,
# reopen, crash-before-swap), and the crash-recovery oracle sweep.
test-segment:
	$(GO) test ./internal/segment -count=1
	$(GO) test . -run 'TestSegment' -count=1
	$(GO) test ./internal/oracle -run 'TestCrashRecoverySweep' -count=1

# test-telemetry is the observability gate: the telemetry package's unit
# suite (histogram edges, exposition format, guard semantics) plus the
# engine-level conformance tests that assert the reported numbers equal
# the engine's own counters, the mixed query/materialize race regression,
# and the per-query allocation budget.
test-telemetry:
	$(GO) test ./internal/telemetry -count=1
	$(GO) test . -run 'TestTrace|TestShardCountersSumToGlobal|TestSlowLogCapturesExactly|TestMetricsMatchQueryTraffic|TestExplainTrace|TestQueryTelemetryAllocGuard' -count=1
	$(GO) test . -run TestTelemetryMixedQueryMaterializeRace -race -count=1
	$(GO) test ./internal/webapi -run 'TestMetrics|TestSlowlog|TestSearchResponseTrace' -count=1

# test-frontdoor is the front-door gate: the admission/cache unit suite,
# the engine-level deadline/cancellation/cache semantics (including the
# race-detected no-stale-hit hammer), the /search 429/503 and cached
# response handler tests, and the 200-case cached-vs-uncached oracle
# sweep asserting byte-identical rankings.
test-frontdoor:
	$(GO) test ./internal/frontdoor -count=1
	$(GO) test . -run 'TestQueryDeadline|TestQueryCancel|TestFrontDoor|TestResultCache|TestWriteInvalidates|TestAdmissionShedAndTimeout' -count=1
	$(GO) test . -run TestNoStaleCacheHitUnderWrites -race -count=1
	$(GO) test ./internal/webapi -run 'TestSearchShed|TestSearchQueueTimeout|TestSearchDeadline|TestSearchCached' -count=1
	$(GO) test ./internal/oracle -run TestCachedDifferential200Cases -count=1

# test-planner is the query-planner gate: the planner package's unit
# suite (cost model, bucketing, eligibility, the cold-start rule), the
# engine-level convergence test (auto routes >= 90% of a calibrated
# workload to the measured-cheapest method), the cold-start agreement
# of Query and Explain, the shadow-sampling-vs-maintenance race
# test, the oracle sweep's Auto column, and the /planner + /search
# planner-field handler tests.
test-planner:
	$(GO) test ./internal/planner -count=1
	$(GO) test . -run 'TestPlannerConvergence|TestShadowSampling|TestPlanner|TestAutoColdStart' -count=1
	$(GO) test . -run TestShadowSamplingRace -race -count=1
	$(GO) test ./internal/oracle -run TestDifferential200Cases -count=1
	$(GO) test ./internal/webapi -run 'TestPlanner|TestSearchPlannerFields|TestExplainPlannerFields' -count=1

# test-cluster is the distributed-tier gate: the cluster package's
# full suite (partitioning, distributed TA, sequenced replication,
# fault injection at every fetch boundary, telemetry conformance), the
# replication/fault tests under the race detector, the 200-case
# distributed-vs-single differential oracle, and the coordinator's
# HTTP handler tests.
test-cluster:
	$(GO) test ./internal/cluster -count=1
	$(GO) test ./internal/cluster -run 'TestQueriesRaceWriteFanout|TestWriteFanoutSurvivesMidApplyCrash|TestClusterIOExactHonestUnderSegmentSwap' -race -count=1
	$(GO) test ./internal/oracle -run 'TestClusterDifferential200Cases|TestClusterPerturbationShrinksToMinimalRepro' -count=1
	$(GO) test ./internal/webapi -run 'TestCluster' -count=1

# test-json is the JSON-universe gate: the jsoncorpus mapping suite
# (golden renderings, scanner cross-checks, strict inverse, JSONPath
# translation), the corpus format-dispatch tests, and the 200-case
# cross-universe differential oracle asserting ERA/TA/NRA/Merge return
# byte-identical rankings for a JSON collection and its canonical XML
# rendering over the v2, split and segment list stores.
test-json:
	$(GO) test ./internal/jsoncorpus -count=1
	$(GO) test ./internal/corpus -count=1
	$(GO) test ./internal/oracle -run 'TestJSONXMLDifferential200Cases|TestUniversePerturbationShrinks' -count=1

# test-ingest is the streaming-ingest gate: the staged-commit crash
# loops (kill at every write boundary; single batch XML and JSON, plus
# the two-batch never-partial loop), the race-detected ingest-vs-query
# vs-autopilot differential, the front-door freshness test (no cached
# pre-ingest result served after commit), the cluster streaming fan-out
# epoch-convergence test, and the /ingest handler tests.
test-ingest:
	$(GO) test ./internal/faultinject -run 'TestCrashLoopStagedIngest' -count=1
	$(GO) test . -run 'TestIngestRacesQueriesAndAutopilot' -race -count=1
	$(GO) test . -run 'TestIngestInvalidatesResultCache' -count=1
	$(GO) test ./internal/cluster -run 'TestClusterStreamingIngestConvergesEpochs' -race -count=1
	$(GO) test ./internal/webapi -run 'TestIngest' -count=1

# fuzz gives each fuzz target — the block-row and posting-fragment
# decoders (the current formats only), the list build's radix sort, the cursor's forward seek, the segment reader, the JSON
# mapping, the index build's grouped tokenizer, the engine's answer ranking
# (ROOT_FUZZ_TARGETS, in the root package) — a short bounded run:
# long enough to catch a regression, short enough for CI. The loop fails
# fast: the first red target stops the run instead of burning the
# remaining fuzz budget on a build that is already broken.
FUZZTIME ?= 5s
FUZZ_TARGETS = FuzzDecodePostingValue FuzzDecodeRPLRow FuzzDecodeERPLRow FuzzBlockRoundTrip FuzzRadixScoreOrder
STORAGE_FUZZ_TARGETS = FuzzCursorSeekForward
SEGMENT_FUZZ_TARGETS = FuzzReader
JSON_FUZZ_TARGETS = FuzzJSONToElements
XMLSCAN_FUZZ_TARGETS = FuzzDocTermGroups
ROOT_FUZZ_TARGETS = FuzzCombine
fuzz:
	@set -e; for t in $(ROOT_FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test . -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done; \
	for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test ./internal/index -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done; \
	for t in $(STORAGE_FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test ./internal/storage -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done; \
	for t in $(SEGMENT_FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test ./internal/segment -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done; \
	for t in $(JSON_FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test ./internal/jsoncorpus -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done; \
	for t in $(XMLSCAN_FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test ./internal/xmlscan -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# soak is the nightly differential-oracle long run: thousands of seeded
# random cases asserting byte-identical rankings across every strategy
# and list store (v2, split, segment). SEED=0 picks a fresh wall-clock
# seed (the test logs it); replay a red run with
# `make soak SEED=<logged seed>`. CASES overrides the case count.
SEED ?= 0
CASES ?= 3000
soak:
	TREX_SOAK=1 TREX_SOAK_SEED=$(SEED) TREX_SOAK_CASES=$(CASES) \
		$(GO) test ./internal/oracle -run '^TestSoak$$' -count=1 -v -timeout 120m

# soak-cluster is the nightly distributed-oracle long run: randomized
# cases through the full CheckCluster grid (shards {1,2,4} x replicas
# {1,2} x ERA/TA/NRA/Merge vs a single engine). Same SEED/CASES
# replay contract as `make soak`; a cluster case covers 24 grid cells,
# so the default count is lower.
CLUSTER_CASES ?= 1000
soak-cluster:
	TREX_SOAK=1 TREX_SOAK_SEED=$(SEED) TREX_SOAK_CASES=$(CLUSTER_CASES) \
		$(GO) test ./internal/oracle -run '^TestClusterSoak$$' -count=1 -v -timeout 120m

# ci is the full pre-merge gate: build, vet, plain tests, race tests,
# the segment-backend gate, the telemetry conformance gate, the
# front-door gate, the query-planner gate, the cluster gate, the
# JSON-universe gate, the streaming-ingest gate, and short codec,
# cursor, segment-format, and JSON-mapping fuzz runs.
ci: build vet test race test-segment test-telemetry test-frontdoor test-planner test-cluster test-json test-ingest fuzz

# run-serve-autopilot is an end-to-end smoke test of the online
# self-management daemon: generate a small corpus, load it, serve it
# with the autopilot on an aggressive interval, push queries through
# /search, and check /autopilot reports a live tracker.
run-serve-autopilot:
	./scripts/serve-autopilot-smoke.sh
