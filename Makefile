# Build/test entry points; `make ci` is the CI gate.
GO ?= go

.PHONY: all build test race vet lint fmt-check loc reach bench benchsmoke ab fuzz chaos chaos-net fabric-test ci golden diffgate race-serve serve-test

all: build vet lint test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages that use or implement the parallel simulation fan-out,
# and lpmreport, which runs its experiments at once.
race:
	$(GO) test -race ./internal/parallel ./internal/sched ./internal/explore . ./cmd/lpmreport

vet:
	$(GO) vet ./...

# The repository's own static-analysis suite (see DESIGN.md §8) over
# every package but bench/, which only benchmark changes edit.
# LINTFLAGS passes extra lpmlint flags (CI sets -format=github so
# findings surface as PR annotations).
LINTFLAGS ?=
lint:
	$(GO) run ./cmd/lpmlint $(LINTFLAGS) . ./cmd/... ./internal/... ./examples/...

# gofmt gate: fails listing the offending files, which gofmt -l alone
# would not (it always exits 0).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Net non-test Go lines (ROADMAP aim 2: simplicity PRs report them in
# CHANGES.md): wc -l over the non-test, non-testdata Go files outside
# bench/, per directory — the root package, each internal/*, cmd and
# examples — plus the total.
loc:
	@for d in . internal/* cmd examples; do \
		depth=; [ $$d = . ] && depth="-maxdepth 1"; \
		n=$$(find $$d $$depth -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l); \
		printf '%7d  %s\n' $$n $$d; total=$$((total+n)); \
	done; printf '%7d  total\n' $$total

# Reach audit (scripts/reach.sh): run every documented user path and the
# bench packages under coverage and list the non-test functions none of
# them reaches — the candidates a simplicity change re-measures instead
# of re-reading. A few minutes; not part of ci.
reach:
	sh scripts/reach.sh

# One pass over every benchmark, reporting the reproduced paper metrics.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' . ./internal/trace ./internal/stats ./internal/analyzer \
		./internal/sim/cache ./internal/sim/chip ./internal/sim/noc ./internal/sim/dram ./internal/fabric ./internal/ctrl

# Smoke the layered benchmark (bench/, declared in BENCHMARK.json): every
# workload runs once, briefly, and must emit its whole metric catalogue.
# Measuring and comparing runs is `go run ./bench` (see EXPERIMENTS.md).
benchsmoke:
	$(GO) run ./bench -smoke

# Paired parent/change comparison of one benchmark workload: PAIRS
# alternating untraced runs of REF (exported under .bench_build/) and of
# the working tree, then each side's median and quartiles, pairs won and
# the gain/no-gain verdict (see scripts/ab.sh).
REF ?= HEAD
WORKLOAD ?= engine_cpu
PAIRS ?= 10
ab:
	sh scripts/ab.sh $(REF) $(WORKLOAD) $(PAIRS)

# Short fuzz smoke over the fuzz targets; the checked-in corpora under
# testdata/fuzz/ replay in ordinary `go test` runs regardless.
fuzz:
	$(GO) test -fuzz FuzzTraceDecode -fuzztime 15s -run '^$$' ./internal/trace
	$(GO) test -fuzz FuzzCacheConfigValidate -fuzztime 15s -run '^$$' ./internal/sim/cache
	$(GO) test -fuzz FuzzTagStore -fuzztime 15s -run '^$$' ./internal/sim/cache
	$(GO) test -fuzz FuzzDRAMConfig -fuzztime 15s -run '^$$' ./internal/sim/dram
	$(GO) test -fuzz FuzzHierarchyBackpressure -fuzztime 15s -run '^$$' ./internal/sim/chip
	$(GO) test -fuzz FuzzFabricFrameDecode -fuzztime 15s -run '^$$' ./internal/fabric
	$(GO) test -fuzz FuzzCoordinator -fuzztime 15s -run '^$$' ./internal/fabric
	$(GO) test -fuzz FuzzSamplerTables -fuzztime 15s -run '^$$' ./internal/stats
	$(GO) test -fuzz FuzzReplayJournal -fuzztime 15s -run '^$$' ./internal/resilience/fleet
	$(GO) test -fuzz FuzzCheckpointDecode -fuzztime 15s -run '^$$' ./internal/resilience
	$(GO) test -fuzz FuzzCheckpointJSON -fuzztime 15s -run '^$$' ./internal/resilience
	$(GO) test -fuzz FuzzDecodeReport -fuzztime 15s -run '^$$' .
	$(GO) test -fuzz FuzzSubmitRunSpec -fuzztime 15s -run '^$$' ./internal/ctrl
	$(GO) test -fuzz FuzzHub -fuzztime 15s -run '^$$' ./internal/ctrl
	$(GO) test -fuzz FuzzLintIgnoreDirective -fuzztime 15s -run '^$$' ./internal/lint

# Sweep-fabric suite: the in-process coordinator/worker harness, the
# scheduling journal and backoff policy (internal/resilience/fleet) and
# the sharded-vs-serial determinism properties under the race detector,
# plus the lpmworker CLI smoke (-help/-version must exit 0). The
# worker's slot executors, the dial-retry handshake and the fleet join
# (WaitWorkers returns at the admission itself), whose races are
# timing-dependent, run twenty times over.
fabric-test:
	$(GO) test -race -count=1 ./internal/fabric ./internal/resilience/fleet ./cmd/lpmworker
	$(GO) test -race -count=20 -run 'TestWorkerExecutor|TestWorkerDialRetry|TestWaitWorkers' ./internal/fabric
	$(GO) test -race -count=1 -run 'TestSharded|TestChaosSharded' . ./cmd/lpmexplore ./cmd/lpmreport
	$(GO) run ./cmd/lpmworker -help
	$(GO) run ./cmd/lpmworker -version

# Fault-injection suite: every recovery path (checkpoint/resume
# bit-identity, watchdog livelock isolation, partial reports on
# cancellation) under the race detector. A prerequisite of `make ci`.
chaos:
	$(GO) test -race -count=1 -run '^TestChaos' ./...

# Network-fault resilience suite: the deterministic fault-injection
# scenarios behind the fleet resilience layer — partition during
# straggler duplication, hung-TCP heartbeat loss, corrupt-frame
# reconnect, lying-worker quarantine, coordinator kill -9 journal
# resume — race-enabled. A subset of `make chaos`, kept addressable on
# its own because these tests exercise the NetProxy/failpoint machinery
# specifically.
chaos-net:
	$(GO) test -race -count=1 -run '^TestChaosFabric' ./internal/fabric

# Regenerate the golden files (the JSON payloads and the lpmreport and
# lpmexplore text) after an intentional model/simulator change.
golden:
	$(GO) test -run Golden -update . ./cmd/lpmreport ./cmd/lpmexplore

# Golden-report regression gate: rebuild the pinned fig1+interval report
# fresh and structurally diff it against the checked-in golden with
# lpmdiff. The build is deterministic, so the gate runs at zero
# tolerance; lpmdiff exits 1 on any drift.
diffgate:
	$(GO) run ./cmd/lpmreport -json -quick -experiment fig1,interval \
		-interval-samples 50000 > /tmp/lpm-report-fresh.json
	$(GO) run ./cmd/lpmdiff testdata/golden/report_fig1_interval.json /tmp/lpm-report-fresh.json

# Race-detector pass over the live exposition server: the -serve
# endpoints are scraped while windows are being published.
race-serve:
	$(GO) test -race -run 'TestServeEndpoints|TestRunServeMidRun' ./cmd/lpmrun

# Fleet control-plane suite: the run registry/scheduler, SSE hub
# backpressure, the serve lifecycle and flag errors, and the load test
# (1k concurrent scrapes + 100 SSE subscribers while a sweep sharded
# over an in-process loopback fabric stays byte-identical to serial),
# all under the race detector.
serve-test:
	$(GO) test -race -count=1 ./internal/ctrl ./cmd/lpmserve ./internal/resilience

# Full CI gate: formatting, build, vet, lint, the fault-injection and
# control-plane suites, the whole suite under the race detector, the
# golden-report diff gate, and the fuzz smoke. The cheap static gates
# (fmt/vet/lint) come first so a finding fails the build in seconds,
# before the long chaos/race/fuzz suites spin up. A caller that already
# ran a prerequisite as its own step skips it with `make ci -o <target>`
# (the workflow in .github/workflows/ci.yml does).
ci: fmt-check build vet lint chaos chaos-net serve-test
	$(GO) test -race ./...
	$(MAKE) diffgate
	$(MAKE) fuzz
