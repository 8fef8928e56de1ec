# Tier-1 verification and the correctness layer around the parallel
# experiment engine. `make check` is the pre-merge gate.

GO ?= go

.PHONY: build vet test test-short race race-short race-fault fuzz fuzz-engines fuzz-pagetable fuzz-cache fuzz-schedule equivalence alloc golden-update bench perfbench-smoke introspect-smoke check

# Every test invocation gets a hard -timeout (a wedged test must fail, not
# hang CI — the same philosophy as the simulator's own watchdogs) and
# -shuffle=on (order-dependent tests must not survive review).
TESTFLAGS ?= -timeout 10m -shuffle=on

build:
	$(GO) build ./...

# Static hygiene: go vet plus a gofmt drift check that fails loudly with
# the offending file list.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test $(TESTFLAGS) ./...

test-short:
	$(GO) test $(TESTFLAGS) -short ./...

# Full race run: includes the parallel-determinism test (fig7 at tiny
# scale under 1 and 8 workers) and the micro-scale engine sweeps.
race:
	$(GO) test $(TESTFLAGS) -race ./...

# Quick race smoke: the short-mode subset still runs TestRaceSmoke, which
# executes a concurrent experiment pair through the worker pool.
race-short:
	$(GO) test $(TESTFLAGS) -race -short ./...

# Race coverage of the robustness layer's concurrency paths — panic
# isolation, mid-sweep cancellation, per-job deadlines, checkpoint-store
# appends and kill/resume — including the tests that -short skips.
race-fault:
	$(GO) test $(TESTFLAGS) -race \
		-run 'Cancel|Panic|Timeout|Resume|KeepGoing|FailFast|Concurrent|Singleflight|Watchdog|Torn|StoreError' \
		./internal/experiment/ ./internal/checkpoint/ ./internal/sim/

# Bounded fuzz pass over the workload generators (footprint containment
# and seed determinism). Extend -fuzztime for deeper soaks.
fuzz:
	$(GO) test ./internal/workload/ -fuzz FuzzGenerator -fuzztime 30s

# Bounded fuzz pass over the fast-vs-reference engine equivalence: random
# valid configurations through both simulation datapaths, byte-identical
# metrics required. Extend -fuzztime for deeper soaks.
fuzz-engines:
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzEngineEquivalence -fuzztime 30s

# Bounded fuzz pass over the page table against its map-of-maps oracle
# (internal/pagetable/oracle_test.go): random Map/MapIfAbsent/Lookup/Walk
# sequences over 4 and 5 levels and 4K/2M pages, with frames on both sides
# of the 2^38 bound, must agree on every result, error, node count and
# frame-allocation order. Both engines share the page table, so the
# engine-equivalence suite cannot catch its bugs. Minimization is bounded
# because the ops inputs are long: unbounded, it idles the workers for
# most of a 60 s soak. Extend -fuzztime for deeper soaks.
fuzz-pagetable:
	$(GO) test ./internal/pagetable/ -run '^$$' -fuzz FuzzTableOracle -fuzztime 30s -fuzzminimizetime 50x

# Bounded fuzz pass over the data caches' flat layout against the reference
# layout (internal/cache/layouts_fuzz_test.go): random Lookup/Fill/FillAt/
# MarkDirty/SetPartition/Flush sequences over 1-16 ways, all three
# policies and both profiler modes, with the flat LRU stamp counter started
# just short of its 2^32 wrap, must agree on every hit, writeback, counter,
# resident line and recency order. Its seed corpus runs in plain go test.
# Minimization is bounded because the ops inputs are long.
fuzz-cache:
	$(GO) test ./internal/cache/ -run '^$$' -fuzz FuzzCacheLayouts -fuzztime 30s -fuzzminimizetime 50x

# Bounded fuzz pass over the run loop's schedule (internal/sim/
# schedule_test.go): whole runs of 1-8 cores from input-chosen clocks and
# reference counts, with retired cores, equal clocks and a single active
# core, must make every pick, runner-up, batch-exit and warm-up decision the
# original two-scan rule makes. Its seed corpus runs in plain go test.
fuzz-schedule:
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzSchedule -fuzztime 30s

# Differential-equivalence suite: the curated fig3/fig8-style matrix plus
# the golden experiment tables, both engines, invariant checks armed.
equivalence:
	$(GO) test $(TESTFLAGS) -run 'EngineEquivalence' ./internal/sim/
	$(GO) test $(TESTFLAGS) -run TestGoldenTablesEngineInvariant ./internal/experiment/

# Allocation regression: the fast engine's steady-state step loop must
# stay allocation-free (internal/sim/alloc_test.go). Runs without -race —
# the detector's instrumentation makes allocation counts meaningless.
alloc:
	$(GO) test $(TESTFLAGS) -run ZeroAllocs ./internal/sim/

# Introspection smoke: the cross-engine attribution equivalence matrix
# (report byte-identical on both engines), the passivity and ledger
# tests, the zero-alloc gate, the two 2% overhead gates (disabled
# attribution hooks and the always-on invariant pass, priced against the
# probe run), the golden-table compare with the plane attached, and a
# real attribution run through cmd/csaltsim with the conservation
# checkers armed (-check verifies every probe's cause buckets sum to the
# counters they shadow).
introspect-smoke:
	$(GO) test $(TESTFLAGS) -run 'Introspect|Attribution|OverheadWithinBar' ./internal/sim/
	$(GO) test $(TESTFLAGS) -run TestDisabledIntrospectionGoldenTables ./internal/experiment/
	$(GO) run ./cmd/csaltsim -mix gups -cores 2 -refs 120000 -warmup 24000 -scale 0.05 -check \
		-attr-out /tmp/csalt-introspect-smoke.json -heatmap-csv /tmp/csalt-introspect-smoke.csv >/dev/null

# Regenerate the golden experiment tables after an intended change to
# simulator behaviour or table formatting.
golden-update:
	$(GO) test ./internal/experiment/ -run TestGoldenTables -update

# Run every package's benchmarks once, so a benchmark that no longer
# builds or fails its own checks is caught. One iteration measures
# nothing; performance is measured with bash perfbench/run.sh.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The benchmark module: perfbench/ is a nested Go module, so the ./...
# patterns above never compile it. Vet and test it, then run one short
# workload through perfbench/run.sh (which builds from this checkout into
# .bench_build) and require its closing JSON line to report a correct run
# with no failed checks.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test $(TESTFLAGS) ./...
	@last=$$(bash perfbench/run.sh --workload stream_pom_d --seconds 2 --trace 0 | tail -n 1); \
	echo "$$last"; \
	echo "$$last" | grep -q '"correct":true' && echo "$$last" | grep -q '"failed":0[,}]' || \
		{ echo "perfbench-smoke: the run was not correct or had failed checks" >&2; exit 1; }

check: build vet test alloc race-short race-fault introspect-smoke
