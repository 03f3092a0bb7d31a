# Pre-merge check: gofmt, vet, build, the wire's import gate, the
# daemon's (qbismd-deps) and the client's (client-deps), the repo's
# own static analysis
# (qbismlint — determinism/spanpair/lockguard/errwrap/opproto plus the
# interprocedural closer/goexit/lockorder/atomicmix suite, see
# DESIGN.md §11 and §15), the suppression budget (lint-ignores), the
# full test suite under the race detector (the
# chaos, netsim, and planner-equivalence concurrency tests are required
# to be race-clean), the degraded-shard chaos suite (make chaos),
# per-package coverage floors, a fuzz smoke pass, and a few iterations
# of the read-, write- and wire-path Go benchmarks (bench-smoke). Run
# `make check` before merging. Performance evidence is the repo
# benchmark (BENCHMARK.json, benchmark/) and named Go tests and
# benchmarks — there is no other series.

GO ?= go

# Packages with an enforced coverage floor, and the floor itself. These
# are the layers the observability work leans on hardest; keep them
# honest.
COVER_PKGS ?= ./internal/obs ./internal/lfm ./internal/sdb ./internal/lint ./internal/cluster ./internal/rencode ./internal/transport
COVER_FLOOR ?= 70.0

# Per-target budget for the fuzz smoke pass.
FUZZTIME ?= 5s

# Checked-in ceiling for //lint:ignore directives. Every suppression
# needs a reason in the code AND room in this budget — raising it is a
# reviewed change. See `make lint-ignores` for the inventory.
LINT_IGNORE_BUDGET := $(shell cat lint_ignore_budget.txt)

.PHONY: check fmt vet build wire-imports qbismd-deps client-deps lint lint-ignores test race cover chaos fuzz-smoke bench-smoke

check: fmt vet build wire-imports qbismd-deps client-deps lint lint-ignores race chaos cover fuzz-smoke bench-smoke

# Formatting gate: any file gofmt would rewrite fails the check (and is
# named in the output).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt: needs formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The wire's headers are fixed binary layouts (DESIGN.md §14): the
# transport must not grow a document codec again.
wire-imports:
	@if $(GO) list -f '{{join .Imports " "}}' ./internal/transport | grep -qw encoding/json; then echo "wire-imports: internal/transport imports encoding/json"; exit 1; fi

# The daemon links the server half only (DESIGN.md §23): the DX front
# end, the cluster, the experiment drivers and what only they use must
# not come back into qbismd's dependency closure.
qbismd-deps:
	@bad="$$($(GO) list -deps ./cmd/qbismd | grep -E '^qbism/internal/(qbism|dx|cluster|feature|mining|spindex|stats)$$')"; if [ -n "$$bad" ]; then echo "qbismd-deps: cmd/qbismd links:"; echo "$$bad"; exit 1; fi

# The DX client links no paper analysis (DESIGN.md §25): the experiment
# drivers live in internal/experiments, and neither they nor what only
# they use may come back into internal/qbism or the CLI. stats is allowed
# in cmd/qbism because the root facade re-exports the fitting functions
# for cmd/regionstat.
client-deps:
	@bad="$$($(GO) list -deps ./internal/qbism | grep -E '^qbism/internal/(experiments|feature|mining|spindex|stats)$$')"; if [ -n "$$bad" ]; then echo "client-deps: internal/qbism links:"; echo "$$bad"; exit 1; fi
	@bad="$$($(GO) list -deps ./cmd/qbism | grep -E '^qbism/internal/(experiments|feature|mining|spindex)$$')"; if [ -n "$$bad" ]; then echo "client-deps: cmd/qbism links:"; echo "$$bad"; exit 1; fi

# Repo-specific static analysis. Exits non-zero on any unsuppressed
# diagnostic; suppressions are `//lint:ignore <check> <reason>` lines.
# The final line is always "qbismlint: N files, M diagnostics,
# K suppressed in D" (D = analysis wall time) so regressions — in
# findings or in analyzer speed — show up in CI logs.
lint:
	$(GO) run ./cmd/qbismlint

# Inventory every //lint:ignore directive with its reason and fail if
# the count exceeds the checked-in budget (lint_ignore_budget.txt).
# Suppressions are debt: adding one means either deleting another or
# raising the budget in a reviewed diff.
lint-ignores:
	$(GO) run ./cmd/qbismlint -ignores -ignore-budget $(LINT_IGNORE_BUDGET)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The fault-injection suites under the race detector: the single-node
# chaos tests, the degraded-shard cluster suite (dead, slow, corrupt,
# and flapping nodes; every query byte-identical or a typed partial),
# the one retry loop both topologies read through (the cluster's, on one
# node and on a shard, and a client retrying over a real socket to a
# daemon), the link's fault tests, and the per-call bill tests (every
# exchange and every cluster read bills what it put on a link, failed
# attempts and hedges included, and the bills sum to the meters under
# eight workers). All seeds are fixed in the tests themselves, so this
# run is deterministic — a failure always replays.
chaos:
	$(GO) test -race -run 'Chaos|Cluster|Degraded|Retry|Breaker|Partial|Partition|Fault|Bill' ./internal/qbism ./internal/cluster ./internal/transport ./internal/netsim ./internal/daemon

# Short native-fuzz runs over the checked-in seed corpora: the sdb SQL
# parser, the rencode REGION decoder (DecodeInto held to Decode's
# verdict), the k³-tree parser (probe answers cross-checked against the
# materialized run list), the k³ × k³ intersection (against the run
# lists' intersection), the n-way fold IntersectN (against a pairwise
# left fold of Intersect, in two operand orders), the transport frame
# codec (both readers, canonical re-encode), the spec
# and meta header decoders (typed refusal or canonical re-encode), and
# arbitrary request bytes into a bare medserver.Server's ServeRPC,
# $(FUZZTIME) each. The last two drive internal/medserver from
# internal/qbism, where its client-side tests also live.
fuzz-smoke:
	$(GO) test -run '^FuzzParseSQL$$' -fuzz '^FuzzParseSQL$$' -fuzztime=$(FUZZTIME) ./internal/sdb
	$(GO) test -run '^FuzzDecodeRegion$$' -fuzz '^FuzzDecodeRegion$$' -fuzztime=$(FUZZTIME) ./internal/rencode
	$(GO) test -run '^FuzzDecodeK3$$' -fuzz '^FuzzDecodeK3$$' -fuzztime=$(FUZZTIME) ./internal/rencode
	$(GO) test -run '^FuzzK3IntersectK3$$' -fuzz '^FuzzK3IntersectK3$$' -fuzztime=$(FUZZTIME) ./internal/rencode
	$(GO) test -run '^FuzzIntersectN$$' -fuzz '^FuzzIntersectN$$' -fuzztime=$(FUZZTIME) ./internal/region
	$(GO) test -run '^FuzzFrame$$' -fuzz '^FuzzFrame$$' -fuzztime=$(FUZZTIME) ./internal/transport
	$(GO) test -run '^FuzzQueryHeader$$' -fuzz '^FuzzQueryHeader$$' -fuzztime=$(FUZZTIME) ./internal/qbism
	$(GO) test -run '^FuzzServeRPC$$' -fuzz '^FuzzServeRPC$$' -fuzztime=$(FUZZTIME) ./internal/qbism

# Per-package coverage with a hard floor: any listed package under
# $(COVER_FLOOR)% statement coverage fails the build.
cover:
	@fail=0; \
	for pkg in $(COVER_PKGS); do \
		line=$$($(GO) test -cover $$pkg | tail -1); \
		pct=$$(echo "$$line" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage line for $$pkg: $$line"; fail=1; continue; fi; \
		ok=$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { print (p+0 >= f+0) ? 1 : 0 }'); \
		if [ "$$ok" = "1" ]; then \
			echo "cover: $$pkg $$pct% (floor $(COVER_FLOOR)%)"; \
		else \
			echo "cover: FAIL $$pkg $$pct% is below the $(COVER_FLOOR)% floor"; fail=1; \
		fi; \
	done; \
	exit $$fail

# One BenchmarkLoad iteration (64^3 corpus, ns/op and allocs/op) for
# the write path: a re-serialized load or a regressed kernel shows here
# without the 12 s repo benchmark — and BenchmarkServeRPCSmall,
# BenchmarkServeRPCMixed and BenchmarkServeRPCBulk for the server side
# of one small request, of one structure ∩ band request (intersection()
# inside extractVoxels(), the REGION passed parsed between them) and of
# one full-study reply through a thrashing page cache (allocs/op and
# B/op are what TestServeRPCAllocBudget and TestBulkReplyAllocBudget put
# ceilings on), BenchmarkServeRPCTraced for the small request with a
# tracer attached (what trace-on costs, beside the line it is measured
# against), BenchmarkRunQueryMixed for the structure ∩ band query end to
# end in one process (DX client, simulated link and server;
# TestRunQueryAllocBudget pins the allocations), and BenchmarkStmtQuery
# and BenchmarkStmtQueryRow for the SQL layer's share of a request (one
# execution of a prepared 4-table join on its retained operator tree,
# streamed through a Rows and read into the caller's row as the server
# reads it; TestStmtQueryAllocBudget and TestStmtQueryRowAllocBudget pin
# the allocations, 2 and 0) — and the REGION
# decode benchmarks on a structure-sized and a band-sized region (what
# every request pays before it can intersect or extract;
# TestDecodeAllocBudget pins the allocations) — and BenchmarkTCPExchange,
# one echo exchange over loopback at a small and a bulk body (the wire
# alone; TestTCPExchangeAllocBudget pins its allocations) — and the
# population query: BenchmarkIntersectN, the five-operand fold alone
# (TestIntersectNAllocBudget pins it at three allocations), and
# BenchmarkParallelMultiStudy, ConsistentBandRegion's reads, decode and
# fold at one and four workers (TestConsistentBandRegionAllocBudget
# pins those) — and BenchmarkNewClusterSystem, one 2×2 cluster built and
# closed at Bits 5 (what its four nodes and one client cost).
bench-smoke:
	$(GO) test -run '^$$' -bench '^Benchmark(Load|ParallelMultiStudy)$$' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench '^BenchmarkNewClusterSystem$$' -benchtime 1x -benchmem ./internal/qbism
	$(GO) test -run '^$$' -bench '^Benchmark(ServeRPC(Small|Mixed|Traced|Bulk)|RunQueryMixed)$$' -benchtime 100x -benchmem ./internal/qbism
	$(GO) test -run '^$$' -bench '^BenchmarkStmtQuery(Row)?$$' -benchtime 100x -benchmem ./internal/sdb
	$(GO) test -run '^$$' -bench '^Benchmark(DecodeK3|ParseK3|DecodeNaive)$$' -benchtime 100x -benchmem ./internal/rencode
	$(GO) test -run '^$$' -bench '^BenchmarkTCPExchange$$' -benchtime 100x -benchmem ./internal/transport
	$(GO) test -run '^$$' -bench '^BenchmarkIntersectN$$' -benchtime 100x -benchmem ./internal/region
