# The CI entry point (.github/workflows/ci.yml runs the same steps).
verify:
	go build ./...
	go vet ./...
	go test -race ./...
	$(MAKE) perfbench-test
	go run ./cmd/cgbench -cache -requests 50000
	go run ./cmd/cgbench -faults -calls 30000
	$(MAKE) fuzz-smoke FUZZTIME=10s

# Packages with a single Fuzz* target each, so -fuzz=Fuzz is unambiguous.
FUZZ_PKGS = internal/vasm internal/tinyc internal/dpf internal/spec \
	internal/mips internal/sparc internal/alpha internal/exec/diff \
	internal/superblock
FUZZTIME ?= 10s

fuzz-smoke:
	@for pkg in $(FUZZ_PKGS); do \
		echo "fuzz $$pkg ($(FUZZTIME))"; \
		go test -run '^$$' -fuzz Fuzz -fuzztime $(FUZZTIME) ./$$pkg || exit 1; \
	done

# The full soak run the PR acceptance criteria describe (>=10^5 calls).
soak:
	go run -race ./cmd/cgbench -faults

# The vcoded codegen server, warm-cache snapshot on; the flight
# recorder (on by default) is served at /trace.  curl examples in
# README.md.
run-server:
	go run ./cmd/vcoded -addr :8753 -snapshot vcoded.snap

# Mixed-tenant server soak under the race detector: an in-process vcoded
# with deterministic fault injection, every failure must come back typed,
# zero panics tolerated.
soak-server:
	go run -race ./cmd/cgbench -serve-soak -serve-calls 30000 -workers 8 -seed 7

# Crash/recovery soak: SIGKILL a real journaled vcoded child
# mid-checkpoint, over and over, under injected fsync/write faults and
# bit-flipped journal tails.  Every durably-acknowledged key must come
# back correct after each restart; cycles alternate shard counts so the
# resharding restore path runs too.
crash-soak:
	go run -race ./cmd/cgbench -crash-soak -crash-cycles 20 -seed 11

test:
	go test ./...

# The benchmark harness is its own module (perfbench/go.mod), so the root
# go build/vet/test never compile it; this catches an API change in the
# packages it imports (flightrec, telemetry, server, jit) before the
# benchmark does.
perfbench-test:
	cd perfbench && go vet ./... && go test ./...

bench:
	go test -bench . -benchtime 1s .

# Machine-readable benchmark records: ns/generated-instruction for every
# backend, cache hit rate and calls/sec, plus a bounded telemetry summary
# (histogram summaries + top counters).  Also emits the lifecycle trace
# and annotated disassembly alongside, a second record
# ($(BENCH_OUT:.json=.batch.json)) with the batch-compile pipeline
# throughput, and a third ($(BENCH_OUT:.json=.serve.json)) with the
# vcoded server's end-to-end throughput and tail latency under the
# mixed-tenant fault-injected load.
#
# Artifact policy: only BENCH_baseline.json (the committed gate anchor)
# and the BENCH_latest.* records of the most recent run live in the repo
# root; per-PR copies are CI artifacts, not commits.
BENCH_OUT ?= BENCH_latest.json
bench-json:
	go run ./cmd/cgbench -cache -metrics -requests 50000 -iters 2000 \
		-trace $(BENCH_OUT:.json=.trace.json) -annotate $(BENCH_OUT:.json=.annotate.txt) \
		-json $(BENCH_OUT)
	go run ./cmd/cgbench -batch 256 -workers 8 \
		-json $(BENCH_OUT:.json=.batch.json)
	go run ./cmd/cgbench -serve-soak -serve-calls 8000 -workers 8 -seed 7 \
		-json $(BENCH_OUT:.json=.serve.json)
	go run ./cmd/cgbench -tier3 -metrics \
		-json $(BENCH_OUT:.json=.tier3.json)

# Benchmark-regression gate: the fresh records against the committed
# baseline, ±25% tolerance (serve latency gets a widened band inside
# benchdiff).  Exits nonzero on regression (CI fails red).
bench-gate: bench-json
	go run ./cmd/benchdiff -tolerance 0.25 BENCH_baseline.json \
		$(BENCH_OUT) $(BENCH_OUT:.json=.batch.json) $(BENCH_OUT:.json=.serve.json) \
		$(BENCH_OUT:.json=.tier3.json)

.PHONY: verify fuzz-smoke soak run-server soak-server crash-soak test perfbench-test bench bench-json bench-gate
