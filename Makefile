GO ?= go

.PHONY: build test testcpu allocs race vet lint loc apicheck benchcheck benchsmoke benchjson figcheck bench benchpar fuzz fault livebench livedurable livereplicas overload livemigrate ci

build:
	$(GO) build ./...

# API-surface gate: the client surface is pinned at compile time
# (apicompat_test.go); building the examples and CLIs exercises the public
# API the way downstream code does.
apicheck:
	$(GO) build ./... ./examples/... ./cmd/...
	$(GO) vet ./...

# The benchmark is its own module (benchmark/go.mod, replace joinopt => ../),
# so the root build, vet and tests do not cover it: vet and short-test it
# here, so a live-plane API change that breaks it fails the root gate.
benchcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# Committed benchmark results: the four BENCHMARK.json workloads at seed 1,
# 30 s, each once untraced (the six end-to-end metrics) and once traced (the
# per-layer metrics), their eight result lines assembled with the host shape
# and the commit into BENCH_<n>.json at the repo root (about 25 minutes). Any
# run that exits non-zero fails the target and leaves no file.
# TestBenchFilesWellFormed checks every committed file against BENCHMARK.json.
BENCH_WORKLOADS = wire_exec zipf_cache put_disk sim_paper
benchjson:
	@test -n "$(PR)" || { echo "usage: make benchjson PR=<n>" >&2; exit 2; }
	@set -e; mkdir -p .bench_out; tmp=.bench_out/benchjson.$$$$; trap 'rm -f $$tmp $$tmp.run' EXIT; \
	printf '{"pr":%s,"commit":"%s","nproc":%s,"go":"%s","seed":1,"seconds":30,"runs":[' \
		"$(PR)" "$$(git describe --always --dirty --abbrev=40)" "$$(nproc)" "$$($(GO) version)" > $$tmp; \
	sep=; for w in $(BENCH_WORKLOADS); do for t in 0 1; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 30 --trace $$t > $$tmp.run; \
		printf '%s\n{"workload":"%s","trace":%s,"result":%s}' "$$sep" $$w $$t "$$(tail -n 1 $$tmp.run)" >> $$tmp; \
		sep=,; \
	done; done; \
	printf '\n]}\n' >> $$tmp; cp $$tmp BENCH_$(PR).json

# The repo benchmark's smoke pass: each workload once at 3 s, untraced
# (about 10 s on two cores). A run that exits non-zero — any failed, canceled
# or shed op, an accounting mismatch, or a benchmark module that no longer
# compiles — or whose last line is not a result line fails the target, so a
# change that breaks a workload fails here and not first in a 30 s run.
benchsmoke:
	@set -e; for w in $(BENCH_WORKLOADS); do \
		out=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 3 --trace 0) || \
			{ echo "benchsmoke: $$w exited non-zero" >&2; exit 1; }; \
		case "$$(printf '%s\n' "$$out" | tail -n 1)" in \
		'{'*'"metrics"'*) echo "benchsmoke: $$w ok" ;; \
		*) echo "benchsmoke: $$w printed no result line" >&2; exit 1 ;; \
		esac; \
	done

# The paper's figures, byte for byte: a fresh `joinbench -fig all` (about
# 12 s on two cores, 18 s at GOMAXPROCS=1) diffed against the output
# committed in internal/bench/testdata. A sim-plane change that moves one
# printed digit of one figure fails here. The figures' runs are spread over
# GOMAXPROCS workers, so run it at GOMAXPROCS=1 too: the output must not
# depend on the worker count.
# After a deliberate model change, regenerate the file with
# `go run ./cmd/joinbench -fig all > internal/bench/testdata/fig_all.golden`.
figcheck:
	@out=$$(mktemp); trap 'rm -f $$out' EXIT; \
	$(GO) run ./cmd/joinbench -fig all > $$out && \
	diff -u internal/bench/testdata/fig_all.golden $$out && echo "figcheck: all figures byte-identical"

test:
	$(GO) test ./...

# The live plane at several GOMAXPROCS values: its executor stripes state by
# GOMAXPROCS, so host shape must never decide whether the suite passes.
testcpu:
	$(GO) test -cpu 1,2,4 ./internal/live

# The allocation budgets by name. Every *AllocBudget and *AllocFree test is
# built only without -race (the race detector's instrumentation allocates),
# so the race run never sees them: run them here, in every package.
allocs:
	$(GO) test -count=1 -run 'Alloc' ./...

race:
	$(GO) test -race -shuffle=on ./...

vet:
	$(GO) vet ./...

# Static analysis, all three layers, all hard failures: vet, staticcheck
# (installed on demand; pinned so a new checker release cannot break an
# unchanged tree), and joinoptlint — the in-repo go/analysis suite that
# enforces the live plane's pooled-object, lock-discipline, typed-error and
# hot-path invariants (see internal/lint), run as a go vet tool so go vet does
# the loading and the test files are checked too. Set STATICCHECK=0 to skip
# the staticcheck layer on machines without network access; vet and
# joinoptlint always run and always gate.
STATICCHECK ?= 1
STATICCHECK_VERSION ?= 2025.1.1
JOINOPTLINT ?= $(or $(TMPDIR),/tmp)/joinoptlint

lint: vet
	@if [ "$(STATICCHECK)" = "1" ]; then \
		command -v staticcheck >/dev/null 2>&1 || $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) || exit 1; \
		staticcheck ./... || exit 1; \
	else echo "lint: staticcheck layer skipped (STATICCHECK=0)"; fi
	$(GO) build -o $(JOINOPTLINT) ./cmd/joinoptlint
	$(GO) vet -vettool=$(JOINOPTLINT) ./...

# The line ledger: non-test Go lines (wc -l) per package, the sums over the
# placement packages and over the optimizer's per-key state (core, freq,
# cache), then per file of internal/live. "Net-negative line counts are a
# result to report" (ROADMAP): run it before and after, and put both in
# CHANGES.md.
GOFILES = '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}'
PLACEMENT_PKGS = ./internal/live ./internal/store ./internal/membership ./internal/cluster
OPTIMIZER_PKGS = ./internal/core ./internal/freq ./internal/cache
loc:
	@$(GO) list -f $(GOFILES) ./... | while read pkg files; do \
		echo "$$(cat $$files | wc -l) $$pkg"; done
	@echo "$$($(GO) list -f $(GOFILES) $(PLACEMENT_PKGS) | cut -d' ' -f2- | xargs cat | wc -l) internal/live + store + membership + cluster"
	@echo "$$($(GO) list -f $(GOFILES) $(OPTIMIZER_PKGS) | cut -d' ' -f2- | xargs cat | wc -l) internal/core + freq + cache"
	@$(GO) list -f $(GOFILES) ./internal/live | cut -d' ' -f2- | xargs wc -l | sed "s|$(CURDIR)/||"

# Wire-codec micro-benchmarks and the end-to-end executor throughput
# benchmarks of the live plane.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/live/...

# Parallel-Submit scaling curve: sharded vs global-lock executor state.
benchpar:
	$(GO) test -run '^$$' -bench LiveExecThroughputParallel -cpu 1,4,8 ./internal/live

# Short fuzz pass over the frame decoder; CI-friendly budget.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 30s ./internal/live

# Fault-injection and crash-recovery suites: node kill/restart, mid-frame
# cuts, blackholes, malformed responses, torn WAL tails, interrupted
# snapshot renames, plus the replication suites (write-quorum arithmetic,
# kill-one-replica failover, catch-up paging, put/flush-barrier registry
# and failed-put visibility contracts), and local UDF runs queued across
# executor Close. Run under the race detector, like CI does.
fault:
	$(GO) test -race -run 'TestFault|TestCrash' -count 2 ./internal/live ./internal/storage
	$(GO) test -race -run TestLocalJobsResolveAcrossClose -cpu 1,2,4 ./internal/live

# End-to-end live-plane throughput over real TCP via the CLI.
livebench:
	$(GO) run ./cmd/joinbench -live

# Disk-engine durability drill: kill and restart a node mid-put-storm on
# the same data directory; fails if any acknowledged put is lost.
livedurable:
	$(GO) run ./cmd/joinbench -livedurable -liveops 20000

# Replication drill: kill one of three replicas under concurrent quorum
# puts and failover reads, restart it, catch it up from the survivors;
# fails if any read error reached a caller or any acked put is missing.
livereplicas:
	$(GO) run ./cmd/joinbench -livereplicas 3 -liveops 6000

# Open-loop overload drill: arrivals at ~5x a capacity-bounded node's
# throughput; fails if any op times out opaquely, fails untyped, or hangs
# instead of resolving as served or a typed CodeOverloaded shed.
overload:
	$(GO) run ./cmd/joinbench -liverate 20000 -liveops 40000

# Elastic-membership drill: a node joins mid-run, every partition migrates
# to it live (fenced handoff, paged copy plus a delta copy above the
# version floor, epoch-bumped cutover) under concurrent puts and
# mixed-route reads against a stale-map client, and the old owner is
# removed; fails on any caller-visible error or wrong answer, any acked put
# missing from the new owner at cutover or lost at the end, or a stale
# post-migration read.
livemigrate:
	$(GO) run ./cmd/joinbench -livemigrate -liveops 20000

# The CI workflow's steps in its order, with its arguments: the benchmark
# smoke pass, figures at GOMAXPROCS=1 too, the four drills, the 10 s fuzz smoke and one pass of
# every benchmark. Only the coverage and line-ledger uploads are left out.
ci: apicheck benchcheck benchsmoke lint race allocs testcpu fault figcheck
	GOMAXPROCS=1 $(MAKE) figcheck
	$(MAKE) livedurable livereplicas overload livemigrate
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s -fuzzminimizetime 100x ./internal/live
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...
