# Pre-merge check: gofmt, vet, build, the wire's import gate, the
# daemon's (qbismd-deps) and the client's (client-deps), the server's
# reproduction boundary (repro-boundary), the repo's own static analysis
# (qbismlint — errwrap and the interprocedural closer, the two
# analyzers DESIGN.md §50's census kept; see §11 and §15), the
# suppression budget (lint-ignores), the
# full test suite under the race detector (the
# chaos, simulated-link, and planner-equivalence concurrency tests are required
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
COVER_PKGS ?= ./internal/obs ./internal/lfm ./internal/sdb ./internal/lint ./internal/cluster ./internal/rencode ./internal/rencode/zoo ./internal/transport
COVER_FLOOR ?= 70.0

# Per-target budget for the fuzz smoke pass.
FUZZTIME ?= 5s

# Checked-in count of //lint:ignore directives. Every suppression needs
# a reason in the code AND room in this budget — raising it is a
# reviewed change, and so is lowering it when a suppression goes. See
# `make lint-ignores` for the inventory.
LINT_IGNORE_BUDGET := $(shell cat lint_ignore_budget.txt)

.PHONY: check fmt vet build wire-imports qbismd-deps client-deps repro-boundary lint lint-ignores test race cover chaos fuzz-smoke bench-smoke loc ab ab-smoke

check: fmt vet build wire-imports qbismd-deps client-deps repro-boundary lint lint-ignores race chaos cover fuzz-smoke bench-smoke

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
# end, the cluster, the experiment drivers and what only they use — the
# codec zoo among them (DESIGN.md §48) — must not come back into
# qbismd's dependency closure.
qbismd-deps:
	@bad="$$($(GO) list -deps ./cmd/qbismd | grep -E '^qbism/internal/(qbism|dx|cluster|feature|mining|spindex|stats|rencode/zoo)$$')"; if [ -n "$$bad" ]; then echo "qbismd-deps: cmd/qbismd links:"; echo "$$bad"; exit 1; fi

# The DX client links no paper analysis (DESIGN.md §25): the experiment
# drivers live in internal/experiments, and neither they nor what only
# they use may come back into internal/qbism or the CLI. stats and the
# codec zoo are allowed in cmd/qbism because the root facade re-exports
# the fitting functions and the codecs for cmd/regionstat.
client-deps:
	@bad="$$($(GO) list -deps ./internal/qbism | grep -E '^qbism/internal/(experiments|feature|mining|spindex|stats|rencode/zoo)$$')"; if [ -n "$$bad" ]; then echo "client-deps: internal/qbism links:"; echo "$$bad"; exit 1; fi
	@bad="$$($(GO) list -deps ./cmd/qbism | grep -E '^qbism/internal/(experiments|feature|mining|spindex)$$')"; if [ -n "$$bad" ]; then echo "client-deps: cmd/qbism links:"; echo "$$bad"; exit 1; fi

# The server stores and serves one Hilbert layout (DESIGN.md §36): Table
# 4's z-naive and octant rows and the Section 4.2 Z-order comparisons
# belong to internal/experiments, so no non-test file of
# internal/medserver may name the Z curve or those rows' labels again.
# The octant codecs are the codec zoo's, which qbismd-deps keeps out. Pricing a query in 1993 seconds is Table 3's
# (DESIGN.md §43): no non-test file of internal/qbism but table3.go may
# name the cost model's pricing terms.
repro-boundary:
	@bad="$$(ls internal/medserver/*.go | grep -v '_test\.go$$' | xargs grep -nE '\<(sfc\.ZOrder|EncZNaive|EncOctant)\>')"; if [ -n "$$bad" ]; then echo "repro-boundary: internal/medserver names:"; echo "$$bad"; exit 1; fi
	@bad="$$(ls internal/qbism/*.go | grep -v '_test\.go$$' | grep -v '/table3\.go$$' | xargs grep -nE '\<(StarburstTime|ImportTime|RenderTime|OtherTime)\>')"; if [ -n "$$bad" ]; then echo "repro-boundary: internal/qbism prices outside table3.go:"; echo "$$bad"; exit 1; fi

# Repo-specific static analysis. Exits non-zero on any unsuppressed
# diagnostic; suppressions are `//lint:ignore <check> <reason>` lines.
# The final line is always "qbismlint: N files, M diagnostics,
# K suppressed in D" (D = analysis wall time) so regressions — in
# findings or in analyzer speed — show up in CI logs.
lint:
	$(GO) run ./cmd/qbismlint

# Inventory every //lint:ignore directive with its reason and fail
# unless the count equals the checked-in budget (lint_ignore_budget.txt).
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
# daemon), the simulated link's fault tests (transport.Sim, each checked
# against the injector that fired it), and the per-call bill tests (every
# exchange and every cluster read bills what it put on a link, failed
# attempts and hedges included, and the bills sum to the meters under
# eight workers), and the LFM's own fault and bill tests (device read
# faults, page corruption, and reads — contiguous and gathered — racing
# over a small page cache, the manager lock held per page transfer).
# All seeds are fixed in the tests themselves, so this run is
# deterministic — a failure always replays.
chaos:
	$(GO) test -race -run 'Chaos|Cluster|Degraded|Retry|Breaker|Partial|Partition|Fault|Bill' ./internal/qbism ./internal/cluster ./internal/transport ./internal/daemon ./internal/lfm

# Short native-fuzz runs over the checked-in seed corpora: the sdb SQL
# parser, the rencode REGION decoder (DecodeInto held to Decode's
# verdict), the codec zoo's decoder over all eight methods (anything it
# accepts re-encodes to itself), the k³-tree parser (probe answers cross-checked against the
# materialized run list), the k³ × k³ intersection (against the run
# lists' intersection), the n-way fold IntersectN (against a pairwise
# left fold of Intersect, in two operand orders), the population query's
# fold over stored k³-trees (one arbitrary row among generated k³, γ and
# other rows: a refusal of any row but a k³-tree, Decode's verdict on one
# that is, then IntersectN's answer), DX's wire import and
# render (arbitrary encoded-REGION and value bytes: a typed refusal or
# the per-voxel oracle's image), the transport frame
# codec (both readers, canonical re-encode), the spec
# and meta header decoders (typed refusal or canonical re-encode), the
# reply framed in its blob's spare capacity (EncodeFrame's bytes,
# whatever the spare), and arbitrary request bytes into a bare
# medserver.Server's ServeRPC, $(FUZZTIME) each. The last three drive
# internal/medserver from internal/qbism, where its client-side tests
# also live.
fuzz-smoke:
	$(GO) test -run '^FuzzParseSQL$$' -fuzz '^FuzzParseSQL$$' -fuzztime=$(FUZZTIME) ./internal/sdb
	$(GO) test -run '^FuzzDecodeRegion$$' -fuzz '^FuzzDecodeRegion$$' -fuzztime=$(FUZZTIME) ./internal/rencode
	$(GO) test -run '^FuzzDecodeRegion$$' -fuzz '^FuzzDecodeRegion$$' -fuzztime=$(FUZZTIME) ./internal/rencode/zoo
	$(GO) test -run '^FuzzDecodeK3$$' -fuzz '^FuzzDecodeK3$$' -fuzztime=$(FUZZTIME) ./internal/rencode
	$(GO) test -run '^FuzzK3IntersectK3$$' -fuzz '^FuzzK3IntersectK3$$' -fuzztime=$(FUZZTIME) ./internal/rencode
	$(GO) test -run '^FuzzIntersectN$$' -fuzz '^FuzzIntersectN$$' -fuzztime=$(FUZZTIME) ./internal/region
	$(GO) test -run '^FuzzIntersectStored$$' -fuzz '^FuzzIntersectStored$$' -fuzztime=$(FUZZTIME) ./internal/rencode
	$(GO) test -run '^FuzzRenderEncoded$$' -fuzz '^FuzzRenderEncoded$$' -fuzztime=$(FUZZTIME) ./internal/dx
	$(GO) test -run '^FuzzFrame$$' -fuzz '^FuzzFrame$$' -fuzztime=$(FUZZTIME) ./internal/transport
	$(GO) test -run '^FuzzQueryHeader$$' -fuzz '^FuzzQueryHeader$$' -fuzztime=$(FUZZTIME) ./internal/qbism
	$(GO) test -run '^FuzzQueryResponseFrame$$' -fuzz '^FuzzQueryResponseFrame$$' -fuzztime=$(FUZZTIME) ./internal/qbism
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
# BenchmarkParallelMultiStudy, ConsistentBandRegion's reads and its fold
# over the stored rows (TestConsistentBandRegionAllocBudget pins its
# allocations) — and BenchmarkNewClusterSystem, one 2×2 cluster built and
# closed at Bits 5 (what its four nodes and one client cost) — and
# BenchmarkDataRegionCodec, the REGION half of a DATA_REGION encoded by
# the server and decoded by the client, naive runs against the wire's
# Elias γ, in ns per run and allocs — and BenchmarkRead, the LFM's one
# page loop on a 2 MiB field: whole (unbuffered, checksummed, cached),
# a 16-page range and a 512-byte piece inside a page (DESIGN.md §35),
# and the gathering reads of the Q2 box's and a short-run band's runs,
# unbuffered and cached, at 0 allocs/op (DESIGN.md §45) —
# and the load's two per-study kernels at paper scale:
# BenchmarkFromScanline, one 128^3 volume reordered onto the Hilbert
# curve by the tree walk, and BenchmarkResample, one PET study warped to
# the atlas (DESIGN.md §37) — and the REGION builders the walk serves:
# BenchmarkFromBox, the paper's Q2 box at 128^3 (TestFromBoxAllocs pins
# it at two allocations), and BenchmarkBuildAtlas, the paper-scale atlas
# every load builds first (DESIGN.md §40) — and BenchmarkRender, DX's MIP
# along Z at Bits 7 on an atlas structure, the Q2 box, the full grid and
# a short-run band REGION, each from a decoded Region and from its wire
# bytes, in ns per rendered voxel (DESIGN.md §41, §42).
bench-smoke:
	$(GO) test -run '^$$' -bench '^Benchmark(Load|ParallelMultiStudy)$$' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench '^BenchmarkNewClusterSystem$$' -benchtime 1x -benchmem ./internal/qbism
	$(GO) test -run '^$$' -bench '^Benchmark(ServeRPC(Small|Mixed|Traced|Bulk)|RunQueryMixed)$$' -benchtime 100x -benchmem ./internal/qbism
	$(GO) test -run '^$$' -bench '^BenchmarkStmtQuery(Row)?$$' -benchtime 100x -benchmem ./internal/sdb
	$(GO) test -run '^$$' -bench '^Benchmark(DecodeK3|ParseK3|DecodeNaive)$$' -benchtime 100x -benchmem ./internal/rencode
	$(GO) test -run '^$$' -bench '^BenchmarkTCPExchange$$' -benchtime 100x -benchmem ./internal/transport
	$(GO) test -run '^$$' -bench '^Benchmark(IntersectN|FromBox)$$' -benchtime 100x -benchmem ./internal/region
	$(GO) test -run '^$$' -bench '^BenchmarkBuildAtlas$$' -benchtime 10x -benchmem ./internal/atlas
	$(GO) test -run '^$$' -bench '^BenchmarkDataRegionCodec$$' -benchtime 100x -benchmem ./internal/medserver
	$(GO) test -run '^$$' -bench '^BenchmarkRead$$' -benchtime 100x -benchmem ./internal/lfm
	$(GO) test -run '^$$' -bench '^BenchmarkFromScanline$$' -benchtime 10x -benchmem ./internal/volume
	$(GO) test -run '^$$' -bench '^BenchmarkResample$$' -benchtime 10x -benchmem ./internal/warp
	$(GO) test -run '^$$' -bench '^BenchmarkRender$$' -benchtime 10x -benchmem ./internal/dx

# The repo benchmark as A/B pairs (scripts/ab.sh): the working tree
# against AB_BASE, AB_PAIRS alternating pairs per workload, each judged
# by -compare, into the one file AB_OUT — per-pair values, median
# ratios, verdicts, revisions and the host. The full run takes about
# twenty minutes on a two-core box; ab-smoke is one Bits 5 pair, under a
# minute.
# Neither is part of check.
AB_BASE ?= HEAD
AB_PAIRS ?= 10
AB_OUT ?= BENCH_ab.json
ab:
	bash scripts/ab.sh -n $(AB_PAIRS) -base $(AB_BASE) -o $(AB_OUT)

ab-smoke:
	bash scripts/ab.sh -smoke -base $(AB_BASE) -o $(AB_OUT)

# The non-test Go line count outside benchmark/ (tracked files, lint
# fixtures included): the number DESIGN.md sections and ROADMAP.md quote
# for a change's before and after. Informational; not part of check.
loc:
	@git ls-files '*.go' | grep -v '^benchmark/' | grep -v '_test\.go$$' | xargs cat | wc -l
