# Developer entry points. The tier-1 gate the CI (and the next PR's
# baseline) runs is `make check`: gofmt, build, vet, full test suite.

GO ?= go

.PHONY: all build fmt test check vet race invariants reference cover fuzz-smoke bench-smoke perf-smoke trace-smoke serve-smoke grid-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when any Go file is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

# check is the tier-1 flow: everything must stay green.
check: fmt build vet test

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

# reference runs the tier-1 suite with every cluster in reference mode
# (mr.Config.Reference): heap-only clock, full-resolve verifier, no
# pooling, fresh substrate. Every test must still pass; the ones that
# pin pooling or reuse skip themselves.
reference:
	SMR_REFERENCE=1 $(GO) test ./...

# cover measures per-package statement coverage (-short: the chaos
# soak runs its reduced seed set) and gates it against the checked-in
# floors in COVERAGE.floors via cmd/covercheck.
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	$(GO) run ./cmd/covercheck -profile cover.out -floors COVERAGE.floors

# fuzz-smoke runs each fuzz target for 10 s beyond its checked-in
# seeds: the scenario, grid-spec and chaos-schedule parsers, the
# clock's scheduling API and the slot manager's kernel. A smoke run,
# not a campaign. -fuzzminimizetime 100x caps the minimization of each
# new interesting input at 100 runs: by default Go spends up to 60 s
# minimizing each one, and those runs do not count as execs, so a
# 10 s smoke could spend most of its time minimizing.
fuzz-smoke:
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzParseScenario$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/grid -run '^$$' -fuzz '^FuzzParseGridSpec$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/chaos -run '^$$' -fuzz '^FuzzParseSchedule$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzClockSchedule$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzSlotKernel$$' -fuzztime 10s -fuzzminimizetime 100x

# bench-smoke proves the benchmark harness still runs end to end
# (single iteration of a mid-weight figure), not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Experiments/fig4$$' -benchtime 1x .

# perf-smoke gates on the steady benchmark's output check: smrperf's
# own tests, then short fig3-matrix, tenant-fleet and served-traced
# runs whose every iteration must reproduce the golden digest (run.sh
# exits non-zero on any mismatch): the Figure-3 milestones, the fleet's
# merged accumulators over admission, open arrivals and capacity
# ticks, and the served chaos run's Merkle root over its artifacts.
# Any change that moves a simulated output fails here. 5 s runs, not
# measurements.
perf-smoke:
	cd smrperf && $(GO) test ./...
	bash smrperf/run.sh --workload fig3-matrix --seed 1 --seconds 5 --trace 0
	bash smrperf/run.sh --workload tenant-fleet --seed 1 --seconds 5 --trace 0
	bash smrperf/run.sh --workload served-traced --seed 1 --seconds 5 --trace 0

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
