GO ?= go

.PHONY: ci build test race vet fmt fmt-check bench-build bench-smoke bench-json bench-json-check bench-pair bundle-check cover fuzz-smoke test-liveness test-failover load-smoke loc

# The full gate: what a PR must pass.
ci: fmt-check vet build bench-build race test-liveness test-failover bundle-check bench-smoke load-smoke bench-json-check cover fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-build vets, builds and tests the frozen benchmark (its own module
# under bench/, importing internal/... through a replace directive) against
# the working tree without touching it, so an internal/ signature change
# that breaks the benchmark fails here instead of in the benchmark pipeline.
bench-build:
	cd bench && export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off && \
		$(GO) vet ./... && $(GO) build -o /dev/null . && $(GO) test ./...

fmt:
	gofmt -l -w cmd internal examples *.go

# fmt-check fails (listing the offenders) if any tracked Go file is not
# gofmt-clean.
fmt-check:
	@out="$$(gofmt -l cmd internal examples bench *.go)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# test-liveness runs the lease-reclamation and degraded-mode suites under
# the race detector: the policy-level lease lifecycle, the model-checked
# faultsim liveness properties, and the transfer tool's breaker/reconcile
# cycle.
test-liveness:
	$(GO) test -race -run 'Lease|Clock|Degraded|Breaker' ./internal/policy/ ./internal/faultsim/ ./internal/transfer/

# test-failover runs the replication suites under the race detector. There
# is one model and one harness: TestFaultSim (1000 seeded schedules, base
# 20260806; FAULTSIM_SCHEDULES / FAULTSIM_SEED override) interleaves
# partition/promote/heal/probe/demote/sync episodes with crashes, disk
# faults and sheds on either node and checks single-epoch acks, no lost
# acked write, fenced deposed primaries, byte-identical reconvergence and
# exactly-once on every step; TestFailoverSim is the same harness over long
# fail-over-and-back schedules, and the Failover* self-tests prove the
# lost-write and wrong-epoch-ack detectors bite. The HTTP-level fence,
# promote, routing and standby-sync tests ride along.
test-failover:
	$(GO) test -race -run 'FaultSim|Failover|Fence|Promote|Epoch|Standby|Replicated|Resync|StateApply' ./internal/faultsim/ ./internal/policyhttp/

# bundle-check validates every example policy bundle offline (parse,
# schema, value ranges, checksum) with the same code the server runs, so
# a committed example can never drift from the bundle schema.
bundle-check:
	$(GO) run ./cmd/policyctl bundle validate examples/*.bundle.json

# bench-smoke compiles and runs every WAL benchmark exactly once, so the
# durability benchmarks cannot rot without failing CI. The lease benchmarks
# ride along: the expiry scan must stay O(active leases) and off the advise
# hot path.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkWAL' -benchtime=1x ./internal/durable/
	$(GO) test -run '^$$' -bench 'BenchmarkLeaseScan|BenchmarkAdviseLeaseOverhead' -benchtime=1x ./internal/policy/

# load-smoke drives the admitted stack at ~4x saturation through the
# closed-loop load harness: overload must shed fast 429s, keep p99
# bounded, and hold goodput instead of collapsing. The durable point runs
# the same stack over a durable store with a 1 ms flush per Sync, and its
# mutate depth must stay within MaxQueue plus two batches. The full
# saturation sweep behind POLICYFLOW_LOAD_CURVE=1 regenerates the
# EXPERIMENTS.md curve and is too slow for CI.
load-smoke:
	$(GO) test -race -run 'TestLoadSmokeShedNotCollapse|TestLoadSmokeDurable' -count=1 ./internal/synth/

# bench-json refreshes the machine-readable perf trajectory at the repo
# root: one JSON series per core benchmark (advise hot path, advise vs
# resident-fact count and vs transfer-list size, lease scan, WAL commit with
# and without fsync),
# stamped with the go version and git SHA. Commit the refreshed file when
# a PR intentionally moves a number.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_policyflow.json

# bench-json-check re-measures the trajectory and fails CI when any
# committed series has regressed more than BENCH_TOLERANCE (fractional;
# 0.30 = 30% slower ns/op) or allocates more than 10% above its committed
# allocs/op or B/op.
BENCH_TOLERANCE := 0.30
bench-json-check:
	$(GO) run ./cmd/benchjson -check BENCH_policyflow.json -tolerance $(BENCH_TOLERANCE)

# bench-pair measures the working tree against HEAD on the repository
# benchmark: HEAD is checked out into one temporary git worktree under
# .bench_build/, and PAIRS pairs of bench/run.sh --trace 0 runs follow.
# WORKLOAD is a space-separated list of workloads, or all for every
# workload BENCHMARK.json declares. Each pair runs every listed workload
# on both sides, each side appending to its own results file and the two
# sides taking turns to go first. One bench/run.sh --compare then judges
# the medians of each workload (exit 1 when one is worse than its bound).
# SEED picks the generated inputs; a claim should also hold on a seed not
# used while writing the change. Run it before committing, with
# WORKLOAD=all for an acceptance run.
WORKLOAD ?= recover-failover
PAIRS ?= 10
SEED ?= 1
PAIR_DIR := .bench_build/pair
PAIR_WORKLOADS = $(if $(filter all,$(WORKLOAD)),$(shell awk -F'"' '/"name"/ { n = $$4 } /"why"/ { print n }' BENCHMARK.json),$(WORKLOAD))
bench-pair:
	rm -rf $(PAIR_DIR) && git worktree prune && mkdir -p $(PAIR_DIR)
	git worktree add --detach $(PAIR_DIR)/head HEAD
	@trap 'git worktree remove --force $(PAIR_DIR)/head' EXIT; \
	run() { echo "== pair $$1/$(PAIRS) $$2: $$3"; bash $$4/bench/run.sh --workload $$2 \
		--seed $(SEED) --trace 0 --results $(CURDIR)/$(PAIR_DIR)/$$3.jsonl; }; \
	for i in $$(seq $(PAIRS)); do \
		for w in $(PAIR_WORKLOADS); do \
			if [ $$((i % 2)) = 1 ]; then \
				run $$i $$w head $(PAIR_DIR)/head && run $$i $$w tree . || exit 1; \
			else \
				run $$i $$w tree . && run $$i $$w head $(PAIR_DIR)/head || exit 1; \
			fi; \
		done; \
	done; \
	bash bench/run.sh --compare $(PAIR_DIR)/head.jsonl $(PAIR_DIR)/tree.jsonl

# cover enforces per-package statement-coverage floors on the
# correctness-critical packages: the policy engine, the durable store,
# the rule engine (held higher — the differential harness should keep
# the matcher thoroughly exercised), and the admission controller (every
# shed path is a promise of "no side effect" and must stay tested), and
# the HTTP layer now that it carries the epoch fence and failover protocol.
COVER_FLOORS := ./internal/policy:70 ./internal/durable:70 ./internal/rules:80 ./internal/admit:75 ./internal/policyhttp:70
cover:
	@for entry in $(COVER_FLOORS); do \
		pkg=$${entry%:*}; floor=$${entry##*:}; \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "no coverage reported for $$pkg"; exit 1; fi; \
		echo "$$pkg coverage: $$pct% (floor $$floor%)"; \
		if ! awk -v p="$$pct" -v f="$$floor" 'BEGIN{exit !(p>=f)}'; then \
			echo "FAIL: $$pkg coverage $$pct% is below the $$floor% floor"; exit 1; \
		fi; \
	done

# fuzz-smoke runs each fuzz target for 10s of random inputs. Go runs one
# fuzz target per invocation, so each gets its own line. Minimizing each
# new interesting input for the default 60s stalls a target whose seeds are
# whole documents (a 4 KiB dump, a request list) after its first seconds,
# so those minimize for 1s. The two FuzzCanonicalDecode targets check the
# canonical decoders against encoding/json.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime=10s ./internal/durable/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/policyhttp/
	$(GO) test -run '^$$' -fuzz '^FuzzSessionOps$$' -fuzztime=10s ./internal/rules/
	$(GO) test -run '^$$' -fuzz '^FuzzStateDump$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/policy/
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalDecode$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/policy/
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalDecode$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/durable/

# loc prints non-test, non-blank Go lines per internal package and per
# command, then their total — the code-volume number the roadmap tracks
# alongside the bench trajectory — and then the concept count: exported
# identifiers per package and in total, and the config-field count (the
# exported fields of every exported struct under internal/ named Config,
# Options or *Config, and their total), printed by the unused-export check
# (internal/apicheck), followed by any export it finds unused.
loc:
	@for d in internal/*/ cmd/*/; do \
		printf '%-24s %6d\n' "$$d" "$$(ls $$d*.go | grep -v _test.go | xargs cat | grep -cv '^[[:space:]]*$$')"; \
	done | awk '{ print; total += $$2 } END { printf "%-24s %6d\n", "total", total }'
	@$(GO) test -count=1 -run '^TestModuleHasNoUnusedExports$$' -v ./internal/apicheck | grep -v '^=== RUN\|^--- PASS\|^PASS\|^ok '
