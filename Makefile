# Developer entry points. `make check` is the full pre-commit gate:
# gofmt, vet, tests, the race detector, fuzz seed corpora, and a benchmark
# smoke run. Individual targets exist for the impatient.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check build fmt-check vet test race delta-stress fuzz bench bench-smoke planner-smoke experiments serve-smoke store-smoke shard-smoke obs-smoke chaos clean

check: fmt-check vet test race delta-stress fuzz bench bench-smoke planner-smoke serve-smoke store-smoke shard-smoke obs-smoke

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

# The table of maintained verdicts under contention, 20 times over with
# the race detector: readers against a carrying writer, watch fan-in,
# registrations racing writes on one store, and readers binding
# distinct constants into one shared plan against a writer. Locks, not a
# queue, order these paths (docs/DELTA.md); about 60 s.
delta-stress:
	$(GO) test -race -count=20 -run 'TestResultCacheCarryRace|TestDeltaFanIn|TestRegisterUnderConcurrentWrites|TestParamBindRace' ./internal/engine ./internal/delta

# Each fuzz target runs for $(FUZZTIME) (seed corpus plus mutation).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) ./internal/parse
	$(GO) test -run '^$$' -fuzz FuzzDatabase -fuzztime $(FUZZTIME) ./internal/parse
	$(GO) test -run '^$$' -fuzz FuzzRelationVsModel -fuzztime $(FUZZTIME) ./internal/db
	$(GO) test -run '^$$' -fuzz FuzzSQLExec -fuzztime $(FUZZTIME) ./internal/sqlexec
	$(GO) test -run '^$$' -fuzz FuzzServerCertainRequest -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzCompiledEval -fuzztime $(FUZZTIME) ./internal/fo
	$(GO) test -run '^$$' -fuzz FuzzBitmapEval -fuzztime $(FUZZTIME) ./internal/fo
	$(GO) test -run '^$$' -fuzz FuzzParamBind -fuzztime $(FUZZTIME) ./internal/fo
	$(GO) test -run '^$$' -fuzz FuzzWatchProtocol -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzRepairSearch -fuzztime $(FUZZTIME) ./internal/naive

# One iteration per benchmark: compiles and exercises every benchmark
# body without waiting for stable timings.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# End-to-end smoke of the repository's benchmark (bench/README.md): every
# workload of BENCHMARK.json for a few seconds against real cqad
# processes — single server, 2-shard router, durable store with writers
# and watch streams, inline databases. Every served verdict and every
# watch flip frame is validated against repair enumeration; exits
# non-zero on any wrong verdict, bad or missed flip. The timings it prints
# are not gated here.
bench-smoke:
	$(GO) run ./bench -quick

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
# /v1/certain request, check that /metrics counted it and that the API
# port serves no /debug/vars, then shut it down. Fails loudly at each
# step.
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
	curl -fsS "http://$$addr/metrics" | grep -qxF 'requests_by_endpoint_total{endpoint="certain"} 1' \
	    || { echo "/metrics: requests_by_endpoint_total{endpoint=\"certain\"} is not 1"; kill $$pid; exit 1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' "http://$$addr/debug/vars"); \
	[ "$$code" = 404 ] || { echo "GET /debug/vars = $$code, want 404"; kill $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	rm -f /tmp/cqad-smoke /tmp/cqad-smoke.addr; \
	echo "serve-smoke OK"

# Crash-recovery smoke: boot cqad with a data directory, create a
# database and write facts over HTTP, SIGKILL the daemon (no graceful
# shutdown, no checkpoint), restart on the same directory, and verify
# the facts and the certainty answer survived WAL replay. A second
# database, created with a seed and never written, must come back from
# the checkpoint its create wrote: version 1, no WAL records.
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
	curl -fsS -d '{"name": "seeded", "facts": "P(a | 1)\nP(b | 2)\nQ(c | 3)"}' \
	    "http://$$addr/v1/db/create" || { kill -9 $$pid; exit 1; }; echo; \
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
	echo "$$info" | grep -Eq '"name":"seeded","version":1,"shards":1,"facts":3,.*"segmentRecords":0,"checkpointVersion":1,' || \
	    { echo "seeded database not recovered from its checkpoint"; kill -9 $$pid; exit 1; }; \
	out=$$(curl -fsS -d '{"query": "R(x | y), !S(y | x)", "database": "smoke"}' \
	    "http://$$addr/v1/certain") || { kill -9 $$pid; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -q '"certain": *true' || { echo "unexpected answer after recovery"; kill -9 $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	rm -rf /tmp/cqad-store-smoke /tmp/cqad-store-smoke.addr /tmp/cqad-store-smoke-data; \
	echo "store-smoke OK"

# Sharded-topology smoke: boot a router over four real cqad shard
# processes, SIGKILL one shard, verify explicit degraded serving
# (partial_result only for queries touching the dead shard), restart it,
# and verify full recovery. The heavier fault-injection loop is `make
# chaos` (TestChaosKillRecover at CHAOS_ROUNDS=20).
shard-smoke:
	$(GO) test -run TestShardSmoke -count=1 -v ./internal/shard/chaostest

chaos:
	CHAOS_ROUNDS=20 $(GO) test -run TestChaosKillRecover -count=1 -v ./internal/shard/chaostest

# Observability smoke: boot a router over four real cqad shard processes,
# trace a read before and after SIGKILLing its owner shard, and check
# the trace and the linted /metrics scrapes tell the truth about it
# (docs/OBSERVABILITY.md).
obs-smoke:
	$(GO) test -run TestObsKillCoherence -count=1 ./internal/shard/chaostest

clean:
	$(GO) clean -testcache
