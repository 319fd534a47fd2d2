GO ?= go

.PHONY: all build vet test test-race race bench bench-serve bench-ingest bench-obs bench-gate examples experiments paper clean checkpoint-fault fuzz-smoke serve-smoke serve-soak obs-smoke cluster-smoke tenant-smoke fleet-obs-smoke

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Alias for test-race; the concurrency tests in internal/core double as the
# race-detector stress suite.
race: test-race

# The crash-recovery fault-injection suite: kill-and-resume equivalence,
# truncation/bit-flip rejection, resumable-source replay, plus a short
# fuzz run over the checkpoint decoder.
checkpoint-fault:
	$(GO) test -run 'KillAndResume|Truncat|BitFlip|Corrupt|Atomic|Snapshot|Resume|Marshal|Unmarshal' \
		./internal/checkpoint/ ./internal/query/ ./internal/stream/ \
		./internal/core/ ./internal/exact/ ./internal/lossy/ ./internal/dsample/ ./cmd/impstat/
	$(GO) test -run FuzzCheckpointDecode -fuzz FuzzCheckpointDecode -fuzztime 10s ./internal/checkpoint/

# Every fuzz target for a few seconds: the decoders that read another
# process's bytes (checkpoint, sketch, frame, batch, telemetry snapshot)
# and the query lexer and parser. `go test -fuzz` takes one target in one
# package per run. Minimizing a newly interesting input costs time
# quadratic in its length, and a telemetry snapshot is over 4 KiB, so
# minimization is capped at 100 runs per input; uncapped, it takes the whole
# time budget.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalSketch$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReaderEquivalence$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/proto/
	$(GO) test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/query/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/query/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/stream/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/telemetry/

# Serving-layer smoke: start impserved on loopback, ingest 100k tuples
# through the wire protocol, query, shut down gracefully, and assert the
# shutdown checkpoint recorded every acknowledged tuple.
serve-smoke:
	$(GO) test -run TestServeSmoke -v ./cmd/impserved/

# Serving-layer soak under the race detector: 1M tuples through IngestBatch
# against a deliberately slow worker and a depth-2 queue, asserting zero
# unreported drops (every refused batch got an explicit busy reply that the
# client retried).
serve-soak:
	$(GO) test -race -run TestSoakLoopbackIngest -v ./internal/server/

# Coordinator fleet smoke under the race detector: impcoordd over real
# impserved leaves, one leaf killed mid-stream and restored from its
# checkpoint through the coordinator's journal-replay recovery, merged
# count asserted bit-identical to an uncrashed shadow fleet.
cluster-smoke:
	$(GO) test -race -run TestClusterSmoke -count=1 -v ./cmd/impcoordd/

# Observability smoke: start impserved with -admin and -trace-spans, ingest
# through the wire, and assert /metrics serves the key series, /healthz
# answers, and /trace carries plan/dispatch/apply/rpc spans.
obs-smoke:
	$(GO) test -run TestObsSmoke -v ./cmd/impserved/

# Fleet observability smoke under the race detector: impcoordd with -admin
# and -trace-spans over three trace-aware leaves, ingest through the wire
# front-end, then assert one assembled cross-node trace (every leaf's spans
# parented under coordinator delivery spans) and a /metrics scrape carrying
# the coordinator's per-leaf rows plus the rolled-up leaf series.
fleet-obs-smoke:
	$(GO) test -race -run TestFleetObsSmoke -count=1 -v ./cmd/impcoordd/

# Multi-tenant smoke under the race detector: the noisy-neighbor isolation
# bound (a quota-saturating tenant leaves a victim's throughput within 80%
# of solo and its engine bit-identical to a dedicated run) and the
# two-tenant kill-and-recover path over per-tenant checkpoint files.
tenant-smoke:
	$(GO) test -race -count=1 -v \
		-run 'TestTenantNoisyNeighbor|TestTenantCheckpointKillRecover' \
		./internal/server/

bench:
	$(GO) test -bench=. -benchmem ./...

# Serving-layer end-to-end throughput: impbench drives loopback impserved
# ingest over both transports at pipeline pool sizes 1 and 4 and GOMAXPROCS
# 1 and 4, plus multi-tenant rows (one server, two namespaced tenants),
# recording the rows (plus the cross-variant count-equality check, which
# extends across the tenant boundary) in BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/impbench -exp serve -workers 1,4 -procs 1,4 -tenants 2 -json BENCH_serve.json

# Regression gate: re-run the serve experiment and fail if, per transport,
# the best tuples/sec falls more than 25% below the committed
# BENCH_serve.json — or the leanest allocs-per-batch rises more than 25%
# above it. The tolerance absorbs run-to-run scheduler and CI-host noise
# (single runs of a multi-second wall-clock measurement routinely wobble
# 10-15%); a real fast-path regression — a reintroduced per-frame or
# per-tuple allocation, a lost writev batch — costs far more than 25% on
# its axis.
bench-gate:
	$(GO) run ./cmd/impbench -exp serve -workers 1,4 -procs 1,4 -tenants 2 -gate BENCH_serve.json

# Library-level ingest throughput (serial vs mutex vs sharded) at
# GOMAXPROCS 1 and 4, recorded in BENCH_ingest.json.
bench-ingest:
	$(GO) run ./cmd/impbench -exp ingest -procs 1,4 -json BENCH_ingest.json

# Observability overhead: the serve harness with the full observability
# layer off and on (tracer in every layer + a live /metrics scraper),
# recording the throughput delta in BENCH_obs.json. -leaves adds the fleet
# pair: a coordinator over 3 leaves with cross-node tracing and the fleet
# /metrics roll-up scraped throughout. The delta is the guardrail:
# instrumentation must stay within a few percent.
bench-obs:
	$(GO) run ./cmd/impbench -exp obs -procs 1,4 -leaves 3 -json BENCH_obs.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/netmon
	$(GO) run ./examples/approxdep
	$(GO) run ./examples/olapsynopsis
	$(GO) run ./examples/distributed

# Every table and figure of the paper at the default (laptop) scale.
experiments:
	$(GO) run ./cmd/impbench -exp all

# The paper's full-scale configuration; takes much longer.
paper:
	$(GO) run ./cmd/impbench -exp all -paper

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
