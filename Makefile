GO ?= go

# Iterations per fuzz target in the smoke run (a count like 40x keeps the
# run fast and deterministic in duration; use a duration for real fuzzing).
FUZZTIME ?= 40x

.PHONY: all build vet fmt-check test race check bench-module bench bench-synth bench-batch bench-interactive program-digests fuzz-smoke trace-smoke chaos-smoke shard-smoke serve-smoke obs-smoke trace

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would reformat any tracked Go file.
fmt-check:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

test: fuzz-smoke
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz-smoke exercises every fuzz target for a handful of mutated inputs,
# so a broken learner or parser invariant fails fast in `make test`.
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzTextLearn -fuzztime $(FUZZTIME) ./internal/textlang
	$(GO) test -run NONE -fuzz FuzzPosBodies -fuzztime $(FUZZTIME) ./internal/poslang
	$(GO) test -run NONE -fuzz FuzzXPathLearn -fuzztime $(FUZZTIME) ./internal/xpath
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/schema
	$(GO) test -run NONE -fuzz FuzzSchemaParse -fuzztime $(FUZZTIME) ./internal/schema
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/htmldom
	$(GO) test -run NONE -fuzz FuzzHTMLParse -fuzztime $(FUZZTIME) ./internal/htmldom
	$(GO) test -run NONE -fuzz FuzzFromCSV -fuzztime $(FUZZTIME) ./internal/sheet
	$(GO) test -run NONE -fuzz FuzzGridRoundTrip -fuzztime $(FUZZTIME) ./internal/sheet
	$(GO) test -run NONE -fuzz FuzzPrefilterSound -fuzztime $(FUZZTIME) ./internal/prefilter
	$(GO) test -run NONE -fuzz FuzzServeRequest -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run NONE -fuzz FuzzHighlighting -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run NONE -fuzz FuzzCacheEval -fuzztime $(FUZZTIME) ./internal/tokens
	$(GO) test -run NONE -fuzz FuzzLearnPositions -fuzztime $(FUZZTIME) ./internal/tokens
	$(GO) test -run NONE -fuzz FuzzCleanUp -fuzztime $(FUZZTIME) ./internal/core

# bench-module vets the benchmark module and runs its tiny-size smoke test.
# benchmark/ is a module of its own, so `go test ./...` never compiles it,
# although it builds against the engine, batch and serve packages.
bench-module:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .

# check is what the CI test job runs (compile everything, vet, gofmt, the
# fuzz smoke, and the race-enabled test suite, which subsumes the plain
# one), plus the benchmark module check of the CI smoke job.
check: build vet fmt-check fuzz-smoke race bench-module

bench:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# bench-synth regenerates the task section of BENCH_synth.json.
bench-synth:
	$(GO) run ./cmd/flashbench -synth-json BENCH_synth_tasks.json -domain text

# bench-batch regenerates BENCH_batch.json: batch-runtime throughput over
# the corpus, serial vs. parallel, with the determinism cross-check.
bench-batch:
	$(GO) run ./cmd/flashbench -batch-json BENCH_batch.json

# bench-interactive regenerates BENCH_interactive.json: k-th-example learn
# latency of incremental vs cold sessions over the corpus plus the large
# stress documents, with the incremental contract self-checked.
bench-interactive:
	$(GO) run ./cmd/flashbench -interactive-json BENCH_interactive.json

# program-digests regenerates internal/bench/testdata/program_digests.txt:
# the SHA-256 of the schema program every corpus task and hadoop-xl saves
# when learned from 1, 2, 3, 5 and all golden instances per field, which
# TestSavedProgramDigests checks. It also regenerates the other pins
# beside it: record_digests.txt, the SHA-256 of the batch records and
# provenance sidecar of every corpus task's all-golden program over its
# domain's corpus (TestBatchRecordDigests); replay_program_digests.txt and
# replay_cond_digests.txt, the SHA-256 of each field's final program of
# the ⊥-relative §6 replay and of its prefilter condition
# (TestReplayDigests); web_explored_counts.txt, the candidates a cold
# synthesis explores on each web task (TestWebExploredCounts); and
# ranked_digests.txt, the length and SHA-256 of the whole ranked list
# ⊥-relative synthesis returns for every text and web field from its
# first 1, 2 and 3 golden instances (TestRankedDigests). Regenerate them
# only with a change that means to alter what synthesis learns or what a
# program extracts.
program-digests:
	$(GO) test ./internal/bench -run '^(TestSavedProgramDigests|TestBatchRecordDigests|TestReplayDigests|TestWebExploredCounts|TestRankedDigests)$$' -count 1 -update

# trace-smoke stands up `flashextract batch -admin`, curls /healthz,
# /metrics, /trace/last, and /debug/pprof, regex-asserts the Prometheus
# exposition, and fails on an unclean SIGINT drain or goroutine leak.
trace-smoke:
	./scripts/trace_smoke.sh

# chaos-smoke runs the batch chaos differential end to end under the race
# detector: seeded fault injection at the transient sites must leave the
# NDJSON output byte-identical to a fault-free run, with retries observed,
# conservation counters intact, and no goroutine leaks.
chaos-smoke:
	./scripts/chaos_smoke.sh

# serve-smoke stands up `flashextract serve -admin` over a learned program
# directory, drives the flashextract-serve/v1 protocol over stdin/stdout
# (ready, scan, scan_batch, structured error frames, SIGHUP hot reload),
# checks /programs and /rpc on the admin side, and fails on an unclean
# close-frame exit or goroutine leak.
serve-smoke:
	./scripts/serve_smoke.sh

# obs-smoke exercises the observability plane end to end: serve with
# -access-log handles scan + explain, the access log must be line-valid
# JSON with unique request ids, the exposition must carry the
# serve_explain_* counters, /requests must retain ids and traces, and the
# explain CLI / batch -provenance sidecar must agree with plain runs.
obs-smoke:
	./scripts/obs_smoke.sh

# shard-smoke runs the hash-range sharding differential end to end under
# the race detector: three `-shard k/3` runs must partition the corpus
# with no gap or overlap and union byte-for-byte to the unsharded output.
shard-smoke:
	./scripts/shard_smoke.sh

# trace writes the Perfetto-loadable synthesis trace of the largest corpus
# document to trace.json (load it at https://ui.perfetto.dev).
trace:
	$(GO) run ./cmd/flashbench -trace-out trace.json
