# Developer entry points. The tier-1 gate the CI (and the next PR's
# baseline) runs is `make check`: build, vet, full test suite.

GO ?= go

.PHONY: all build test check vet race invariants cover bench-smoke perf-smoke bench-fluid bench-alloc bench-clock bench-fleet bench-tenant trace-smoke serve-smoke grid-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# check is the tier-1 flow: everything must stay green.
check: build vet test

# race runs the runtime-heavy internal packages under the race
# detector; the figure matrices are too slow for -race, the internals
# are where the concurrency lives.
race:
	$(GO) test -race ./internal/...

# invariants runs the tier-1 suite with runtime invariant checking
# forced on. Test binaries already self-enable it; the env var also
# covers code paths that shell out or rebuild clusters outside tests.
invariants:
	SMR_INVARIANTS=1 $(GO) test ./...

# cover measures per-package statement coverage (-short: the chaos
# soak runs its reduced seed set) and gates it against the checked-in
# floors in COVERAGE.floors via cmd/covercheck.
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	$(GO) run ./cmd/covercheck -profile cover.out -floors COVERAGE.floors

# bench-smoke proves the benchmark harness still runs end to end
# (single iteration of a mid-weight figure), not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench Figure4 -benchtime 1x .

# perf-smoke gates on the steady benchmark's output check: smrperf's
# own tests, then a short fig3-matrix run whose every iteration must
# reproduce the golden digest of the Figure-3 milestones (run.sh exits
# non-zero on any mismatch). Any change that moves a simulated output
# fails here. A 5 s run, not a measurement.
perf-smoke:
	cd smrperf && $(GO) test ./...
	bash smrperf/run.sh --workload fig3-matrix --seed 1 --seconds 5 --trace 0

# bench-fluid regenerates BENCH_fluid.json (baseline vs incremental
# fluid-rate resolver timings).
bench-fluid:
	$(GO) run ./cmd/smrbench -benchjson

# bench-alloc regenerates BENCH_alloc.json (allocs/op, bytes/op and GC
# cycles of the figure macro-runs against the pre-pooling baselines,
# plus the pooled-vs-unpooled netsim churn loop), and runs the zero-
# alloc AllocsPerRun guards in short mode as a quick gate first.
bench-alloc:
	$(GO) test -short -run 'ZeroAlloc|AllocFree' ./internal/sim/ ./internal/netsim/ ./internal/mr/
	$(GO) run ./cmd/smrbench -memjson

# bench-clock regenerates BENCH_clock.json (timing wheel vs heap-only
# event scheduler: periodic-beat and churn microbenchmarks plus figure
# and fleet macro-runs, both backends measured live), after running the
# wheel-vs-heap differential pins as a gate.
bench-clock:
	$(GO) test -run 'WheelVsHeapSchedDifferential|SchedDiffSeeded' ./internal/mr/ ./internal/sim/
	$(GO) run ./cmd/smrbench -clockjson

# bench-fleet regenerates BENCH_fleet.json (the fleet runner's
# 1→GOMAXPROCS scaling curve over a 256-cluster fleet: runs/sec,
# speedup and parallel efficiency per worker count), after running the
# fleet determinism pin as a gate. The curve is machine-dependent —
# efficiency is only meaningful up to the runner's core count.
bench-fleet:
	$(GO) test -run 'FleetDeterminism' ./internal/fleet/
	$(GO) run ./cmd/smrbench -fleetjson

# bench-tenant regenerates BENCH_tenant.json (the multi-tenant
# capacity-policy shoot-out: every engine replays identical open
# arrival streams at three offered loads), after pinning open-arrival
# determinism across fleet worker counts as a gate.
bench-tenant:
	$(GO) test -run 'FleetDeterminismOpenArrivals|ShootoutDeterministic' ./internal/fleet/ ./internal/experiments/
	$(GO) run ./cmd/smrbench -tenantjson

# trace-smoke proves the observability pipeline end to end: a traced
# default run must produce a valid Chrome trace (tracecheck) and a
# telemetry CSV.
trace-smoke:
	$(GO) run ./cmd/smrsim -bench terasort -input-gb 10 \
		-trace trace-smoke.json -telemetry trace-smoke.csv -explain
	$(GO) run ./cmd/tracecheck trace-smoke.json
	head -1 trace-smoke.csv

# grid-smoke proves the experiment-grid harness end to end: sweep the
# checked-in CI smoke grid (engines × workloads × scales × seeds) into
# grid-smoke-out/ and re-validate the resulting CSV and artifacts
# against the spec with the validate subcommand.
grid-smoke:
	rm -rf grid-smoke-out
	$(GO) run ./cmd/smrgrid run -spec experiments/smoke.json -out grid-smoke-out
	$(GO) run ./cmd/smrgrid validate -out grid-smoke-out

# serve-smoke proves the simulation service end to end: boot on an
# ephemeral port, submit a scenario over HTTP, watch the SSE stream to
# its terminal `done` event, check artifact determinism across a
# resubmission, drain gracefully, and verify the persisted run ledger
# offline with ledgercheck.
serve-smoke:
	./scripts/serve_smoke.sh serve-smoke-out

clean:
	rm -f smapreduce.test mr.test netsim.test
	rm -f trace-smoke.json trace-smoke.csv cover.out
	rm -rf serve-smoke-out grid-smoke-out
