GO ?= go

# Coverage floor for `make cover` (total statement coverage of
# internal/... across the full suite). Measured 90.9% when the gate was
# introduced; the floor leaves ~3 points of headroom for legitimate churn.
# Raise it when coverage durably improves — never lower it to make a PR
# pass.
COVER_FLOOR ?= 88.0

.PHONY: all build test check cover chaos migrate bench scenario scenario-golden clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate: formatting, clean build, vet, and the full test
# suite under the race detector.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...

# cover enforces the statement-coverage floor above.
cover:
	$(GO) test -count=1 -coverprofile=cover.out -coverpkg=./internal/... ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub("%","",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) }' || \
		{ echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# chaos runs the fault-injection suite the way CI's chaos job does: the
# fault, failover and fleet differential + soak tests under the race
# detector, the breaker/admission unit tests, plus a bounded fuzz of the
# plan decoder.
chaos:
	$(GO) test -race -count=1 -run 'TestFault|TestParsePlan|TestValidate|TestPlanRoundTrip' ./internal/fault/
	$(GO) test -race -count=1 -run 'TestFailover|TestRegisterReplicaSet|TestContainedFault|TestUnloadDropsGroups' ./internal/core/
	$(GO) test -race -count=1 -run 'TestBreaker|TestShell|TestRequester|TestLoadBalancer' ./internal/accel/ ./internal/apps/
	$(GO) test -race -count=1 ./internal/cluster/
	$(GO) test -race -run TestFaultSoak -timeout 10m ./internal/fault/
	$(GO) test -race -run TestFailoverSoak -timeout 10m ./internal/core/
	$(GO) test -fuzz=FuzzFaultPlanParse -fuzztime=30s ./internal/fault/
	$(GO) test -fuzz=FuzzSnapshotRestore -fuzztime=30s ./internal/core/

# migrate runs the live-migration gates the way CI's chaos job does: the
# kernel checkpoint/restore and chaos-migrate unit tests, the on-board and
# cross-board migration differentials (client-visible outcomes identical to
# an unmigrated control outside the bounded window, bit-exact across repeat
# runs and worker counts), the mid-transfer abort, the orchestrator directive
# tests, the checkpointable-app contract tests, and a bounded fuzz of the
# snapshot decoder.
migrate:
	$(GO) test -race -count=1 -run 'TestSnapshot|TestCheckpoint|TestMigrate|TestRestoreRejects|TestChaosMigrateFault' ./internal/core/
	$(GO) test -race -count=1 -run 'TestMigrate|TestDrainBoard|TestScheduledDirectives' ./internal/cluster/
	$(GO) test -race -count=1 -run 'TestMigrate' -timeout 10m ./internal/load/
	$(GO) test -race -count=1 -run 'TestRequesterQuiescing|TestKVStoreSaveRestore|TestStageSaveRestore' ./internal/apps/
	$(GO) test -race -count=1 -run 'TestParsePlanMigrate|TestInjector' ./internal/fault/
	$(GO) test -fuzz=FuzzSnapshotRestore -fuzztime=30s ./internal/core/

# bench runs a short microbenchmark sweep (for quick before/after deltas)
# and regenerates the experiment tables into BENCH_PR.json — the committed
# trajectory baseline CI diffs new runs against (see .github/workflows/ci.yml).
bench:
	$(GO) test -run '^$$' -bench . -benchtime=100x -benchmem .
	$(GO) run ./cmd/apiary-bench -json BENCH_PR.json

# scenario runs the open-loop load-harness gates the way CI's scenario job
# does: the committed smoke scenario vs its golden fingerprint, the
# repeat-run and fleet-worker differential, record/replay equality, and a
# bounded fuzz of the scenario decoder.
scenario:
	$(GO) test -race -count=1 -run 'TestScenarioGolden|TestScenarioDifferential|TestReplayFingerprint' ./internal/load/
	$(GO) test -fuzz=FuzzScenarioParse -fuzztime=30s ./internal/load/

# scenario-golden regenerates the committed smoke-scenario fingerprint.
# Commit the refreshed internal/load/testdata/smoke.golden and include
# `scenario-baseline-refresh` in the commit message so CI skips the stale
# diff for that push (see .github/workflows/ci.yml).
scenario-golden:
	UPDATE_SCENARIO_GOLDEN=1 $(GO) test -count=1 -run TestScenarioGolden ./internal/load/

clean:
	rm -f BENCH_NEW.json BENCH_P1.json cover.out
	$(GO) clean ./...
