# Developer entry points. `make check` is the full pre-commit gate:
# gofmt, vet, tests, the race detector, fuzz seed corpora, and a benchmark
# smoke run. Individual targets exist for the impatient.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check build fmt-check vet test race fuzz bench bench-smoke planner-smoke experiments serve-smoke store-smoke shard-smoke obs-smoke watch-smoke chaos bench-shard clean

check: fmt-check vet test race fuzz bench bench-smoke planner-smoke shard-smoke obs-smoke watch-smoke

build:
	$(GO) build ./...

# Fails, naming them, if any Go file is not gofmt-formatted.
fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then echo "gofmt -l . lists:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Each fuzz target runs for $(FUZZTIME) (seed corpus plus mutation).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) ./internal/parse
	$(GO) test -run '^$$' -fuzz FuzzDatabase -fuzztime $(FUZZTIME) ./internal/parse
	$(GO) test -run '^$$' -fuzz FuzzRelationVsModel -fuzztime $(FUZZTIME) ./internal/db
	$(GO) test -run '^$$' -fuzz FuzzSQLExec -fuzztime $(FUZZTIME) ./internal/sqlexec
	$(GO) test -run '^$$' -fuzz FuzzServerCertainRequest -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzWALStream -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzCompiledEval -fuzztime $(FUZZTIME) ./internal/fo
	$(GO) test -run '^$$' -fuzz FuzzBitmapEval -fuzztime $(FUZZTIME) ./internal/fo
	$(GO) test -run '^$$' -fuzz FuzzWatchProtocol -fuzztime $(FUZZTIME) ./internal/server

# One iteration per benchmark: compiles and exercises every benchmark
# body without waiting for stable timings.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Compiled-vs-interpreted evaluation smoke: runs the E-series rewriting
# workloads at tiny sizes, regenerates BENCH_eval.json, and fails if any
# of the engine ordering gates break on the largest smoke instance: the
# compiled evaluator must beat the tree walker (E15), the bitmap
# evaluator must beat the scalar compiled one (E18), and the shared-pass
# batch must beat the per-item loop at batch 64 (E18). The gates live in
# certbench's -bench-out mode.
bench-smoke:
	$(GO) run ./cmd/certbench -bench-out BENCH_eval.json -quick

# Planner smoke: the graph deciders' differential tests against the
# naive repair-enumeration oracle (500 random cyclic instances), the
# shared-decision race check, and the end-to-end served-strategy checks
# through the HTTP stack (docs/PLANNER.md).
planner-smoke:
	$(GO) test -run 'TestDifferentialDecidersVsNaive|TestDecidersOnEdgeInstances|TestSharedDecisionRace' -count=1 ./internal/planner
	$(GO) test -run 'TestPlanner' -count=1 ./internal/server

experiments:
	$(GO) run ./cmd/certbench -quick

# Boot a real cqad on a random port, hit /healthz and answer one
# /v1/certain request, then shut it down. Fails loudly at each step.
serve-smoke:
	$(GO) build -o /tmp/cqad-smoke ./cmd/cqad
	@rm -f /tmp/cqad-smoke.addr; \
	/tmp/cqad-smoke -addr 127.0.0.1:0 -addr-file /tmp/cqad-smoke.addr & \
	pid=$$!; \
	for i in $$(seq 1 50); do [ -s /tmp/cqad-smoke.addr ] && break; sleep 0.1; done; \
	addr=$$(cat /tmp/cqad-smoke.addr) || { kill $$pid; exit 1; }; \
	echo "cqad on $$addr"; \
	curl -fsS "http://$$addr/healthz" || { kill $$pid; exit 1; }; echo; \
	out=$$(curl -fsS -d '{"query": "R(x | y)", "facts": "R(a | 1)\nR(a | 2)"}' \
	    "http://$$addr/v1/certain") || { kill $$pid; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -q '"certain": *true' || { echo "unexpected answer"; kill $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	rm -f /tmp/cqad-smoke /tmp/cqad-smoke.addr; \
	echo "serve-smoke OK"

# Crash-recovery smoke: boot cqad with a data directory, create a
# database and write facts over HTTP, SIGKILL the daemon (no graceful
# shutdown, no checkpoint), restart on the same directory, and verify
# the facts and the certainty answer survived WAL replay.
store-smoke:
	$(GO) build -o /tmp/cqad-store-smoke ./cmd/cqad
	@rm -rf /tmp/cqad-store-smoke-data /tmp/cqad-store-smoke.addr; \
	/tmp/cqad-store-smoke -addr 127.0.0.1:0 -addr-file /tmp/cqad-store-smoke.addr \
	    -data /tmp/cqad-store-smoke-data & \
	pid=$$!; \
	for i in $$(seq 1 50); do [ -s /tmp/cqad-store-smoke.addr ] && break; sleep 0.1; done; \
	addr=$$(cat /tmp/cqad-store-smoke.addr) || { kill -9 $$pid; exit 1; }; \
	echo "cqad on $$addr (data: /tmp/cqad-store-smoke-data)"; \
	curl -fsS -d '{"name": "smoke", "facts": "R(a | 1)\nS(z | z)"}' \
	    "http://$$addr/v1/db/create" || { kill -9 $$pid; exit 1; }; echo; \
	curl -fsS -d '{"database": "smoke", "facts": "R(a | 2)\nR(b | 7)"}' \
	    "http://$$addr/v1/db/insert" || { kill -9 $$pid; exit 1; }; echo; \
	echo "SIGKILL $$pid (no graceful shutdown)"; \
	kill -9 $$pid; wait $$pid 2>/dev/null; \
	rm -f /tmp/cqad-store-smoke.addr; \
	/tmp/cqad-store-smoke -addr 127.0.0.1:0 -addr-file /tmp/cqad-store-smoke.addr \
	    -data /tmp/cqad-store-smoke-data & \
	pid=$$!; \
	for i in $$(seq 1 50); do [ -s /tmp/cqad-store-smoke.addr ] && break; sleep 0.1; done; \
	addr=$$(cat /tmp/cqad-store-smoke.addr) || { kill -9 $$pid; exit 1; }; \
	echo "restarted cqad on $$addr"; \
	info=$$(curl -fsS "http://$$addr/v1/db/info") || { kill -9 $$pid; exit 1; }; \
	echo "$$info"; \
	echo "$$info" | grep -q '"facts": *4' || { echo "facts lost in crash"; kill -9 $$pid; exit 1; }; \
	out=$$(curl -fsS -d '{"query": "R(x | y), !S(y | x)", "database": "smoke"}' \
	    "http://$$addr/v1/certain") || { kill -9 $$pid; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -q '"certain": *true' || { echo "unexpected answer after recovery"; kill -9 $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	rm -rf /tmp/cqad-store-smoke /tmp/cqad-store-smoke.addr /tmp/cqad-store-smoke-data; \
	echo "store-smoke OK"

# Incremental-maintenance smoke: boot a cqad with a fast /v1/watch
# heartbeat and run the cqaload mutable workload with watch
# subscriptions — every served read is validated against the
# contemporaneous shadow AND every pushed flip frame must match ground
# truth at its version with no missed or fabricated flips
# (docs/DELTA.md). Exit 1 on any mismatch.
watch-smoke:
	$(GO) build -o /tmp/cqad-watch-smoke ./cmd/cqad
	$(GO) build -o /tmp/cqaload-watch-smoke ./cmd/cqaload
	@rm -f /tmp/cqad-watch-smoke.addr; \
	/tmp/cqad-watch-smoke -addr 127.0.0.1:0 -addr-file /tmp/cqad-watch-smoke.addr \
	    -watch-heartbeat 300ms & \
	pid=$$!; \
	for i in $$(seq 1 50); do [ -s /tmp/cqad-watch-smoke.addr ] && break; sleep 0.1; done; \
	addr=$$(cat /tmp/cqad-watch-smoke.addr) || { kill $$pid; exit 1; }; \
	echo "cqad on $$addr (watch-heartbeat 300ms)"; \
	/tmp/cqaload-watch-smoke -url "http://$$addr" -mutate -watch -validate \
	    -writes 120 -readers 2 -db watchsmoke \
	    || { kill -9 $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	rm -f /tmp/cqad-watch-smoke /tmp/cqaload-watch-smoke /tmp/cqad-watch-smoke.addr; \
	echo "watch-smoke OK"

# Sharded-topology smoke: boot a router over four real cqad shard
# processes, SIGKILL one shard, verify explicit degraded serving
# (partial_result only for queries touching the dead shard), restart it,
# and verify full recovery. The heavier fault-injection loop is `make
# chaos` (TestChaosKillRecover at CHAOS_ROUNDS=20).
shard-smoke:
	$(GO) test -run TestShardSmoke -count=1 -v ./internal/shard/chaostest

chaos:
	CHAOS_ROUNDS=20 $(GO) test -run TestChaosKillRecover -count=1 -v ./internal/shard/chaostest

# Observability smoke: boot a router over two real cqad shard processes
# and run the cqaload coherence checker against it — traced explain
# queries, /debug/traces cross-checks, and a linted /metrics Prometheus
# scrape whose counters must move with the traffic (docs/OBSERVABILITY.md).
obs-smoke:
	$(GO) build -o /tmp/cqad-obs-smoke ./cmd/cqad
	$(GO) build -o /tmp/cqaload-obs-smoke ./cmd/cqaload
	@rm -f /tmp/cqad-obs-s0.addr /tmp/cqad-obs-s1.addr /tmp/cqad-obs-rt.addr; \
	/tmp/cqad-obs-smoke -addr 127.0.0.1:0 -addr-file /tmp/cqad-obs-s0.addr & s0=$$!; \
	/tmp/cqad-obs-smoke -addr 127.0.0.1:0 -addr-file /tmp/cqad-obs-s1.addr & s1=$$!; \
	for i in $$(seq 1 50); do [ -s /tmp/cqad-obs-s0.addr ] && [ -s /tmp/cqad-obs-s1.addr ] && break; sleep 0.1; done; \
	a0=$$(cat /tmp/cqad-obs-s0.addr) && a1=$$(cat /tmp/cqad-obs-s1.addr) \
	    || { kill $$s0 $$s1 2>/dev/null; exit 1; }; \
	/tmp/cqad-obs-smoke -addr 127.0.0.1:0 -addr-file /tmp/cqad-obs-rt.addr \
	    -route "http://$$a0,http://$$a1" -slow-query 5s & rt=$$!; \
	for i in $$(seq 1 50); do [ -s /tmp/cqad-obs-rt.addr ] && break; sleep 0.1; done; \
	addr=$$(cat /tmp/cqad-obs-rt.addr) || { kill $$s0 $$s1 $$rt 2>/dev/null; exit 1; }; \
	echo "router on $$addr over $$a0 $$a1"; \
	/tmp/cqaload-obs-smoke -obs -url "http://$$addr" -requests 8 \
	    || { kill -9 $$s0 $$s1 $$rt 2>/dev/null; exit 1; }; \
	kill -TERM $$s0 $$s1 $$rt; wait $$s0 $$s1 $$rt; \
	rm -f /tmp/cqad-obs-smoke /tmp/cqaload-obs-smoke /tmp/cqad-obs-*.addr; \
	echo "obs-smoke OK"

# Read-throughput scaling of the sharded tier: router over 1 vs 4 shard
# processes under the phased cqaload workload, regenerating
# BENCH_shard.json and failing below a 3x speedup.
bench-shard:
	$(GO) run ./cmd/shardbench

clean:
	$(GO) clean -testcache
