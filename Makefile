# Tier-1 verification plus the race-detector gate on the concurrent
# packages — the same sequence .github/workflows/ci.yml runs.

GO ?= go

.PHONY: ci fmt build vet bench-vet bench-test dead-options dead-exports test test-386 race staticcheck cover sca-gate qos fuzz soak

ci: fmt vet bench-vet bench-test staticcheck dead-options build test test-386 race

# gofmt over every module in the tree, bench/ included.
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bench/ is its own module, so the root ./... never compiles it; vet it
# separately so deleting an internal API it imports fails here, not in
# bench/run.sh.
bench-vet:
	cd bench && $(GO) vet ./...

# The bench module's unit tests; -short skips the smoke run of every
# workload.
bench-test:
	cd bench && $(GO) test -short ./...

# Dead-option lint: fails when an exported func With... in non-test Go
# has no reference anywhere in the repo besides its own declaration.
dead-options:
	bash scripts/lint-dead-options.sh

# Dead-export report, not part of ci: lists exported funcs under
# internal/ (the paper-reproduction packages aside) that nothing outside
# tests calls. Leads for deletion, not a gate; always exits 0.
dead-exports:
	bash scripts/lint-dead-exports.sh

test:
	$(GO) test ./...

# The word kernel on a 32-bit GOARCH, where big.Word is 32 bits and the
# kernel runs its portable row operation instead of math/big's assembly;
# and the gate-level simulator, whose net slots are int32 indices.
test-386:
	GOARCH=386 $(GO) test ./internal/highradix/... ./internal/mont/... ./internal/logic/... ./internal/mmmc/...

race:
	$(GO) test -race ./internal/engine/... ./internal/core/... ./internal/obs/... ./internal/server/... ./internal/cluster/... ./internal/faults/... ./internal/integrity/... ./internal/highradix/... ./internal/kits/... ./internal/cryptosvc/... ./internal/sca/... ./internal/qos/... ./cmd/loadgen/...

# CI installs staticcheck; locally the gate is skipped when the binary
# is absent rather than failing the whole ci target.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Coverage profile for the observability gate (same artifact CI uploads).
cover:
	$(GO) test -race -coverprofile=coverage.out -covermode=atomic ./internal/obs/... ./internal/engine/...
	$(GO) tool cover -func=coverage.out | tail -1

# The SCA regression gate on its own (also part of `test` and `race`).
sca-gate:
	$(GO) test -run 'SCALeakageGate' -v ./internal/cryptosvc/

# The QoS plane's own gate: lane scheduler properties, tagged-frame
# golden bytes, the client retry decision table, and live admission —
# the same suites CI's qos-integration job runs under -race. (The fleet
# experiment itself is `loadgen -scenario tenants`; see ci.yml.)
qos:
	$(GO) test -race -count=1 ./internal/qos/...
	$(GO) test -race -count=1 -run 'Lane|QoS|RateLimited|RetryDecision|Deadline' ./internal/engine/... ./internal/server/...

# Native fuzzing of everything that parses hostile bytes — the wire
# frame decoders (both directions), the request codec's
# encode∘decode fixpoint, the response-id fast path, and the
# QoS spec parser — plus the word-level Montgomery kernel's witness
# identity, and the paper's Algorithm 2 and the Hensel inverse n'
# behind it. The committed corpus under testdata/fuzz/ replays as plain
# tests on every `go test`; this target mines for NEW inputs.
# Go's fuzzer takes one -fuzz target per invocation, hence the list.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run xxx -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run xxx -fuzz '^FuzzDecodeResponse$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run xxx -fuzz '^FuzzRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run xxx -fuzz '^FuzzResponseID$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run xxx -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) ./internal/qos/
	$(GO) test -run xxx -fuzz '^FuzzWordWitness$$' -fuzztime $(FUZZTIME) ./internal/highradix/
	$(GO) test -run xxx -fuzz '^FuzzAlgorithm2$$' -fuzztime $(FUZZTIME) ./internal/mont/
	$(GO) test -run xxx -fuzz '^FuzzNPrime$$' -fuzztime $(FUZZTIME) ./internal/mont/

# The composed soak: a live fleet (montsyslb + three montsysd) that
# changes shape mid-run — file-watch join, kill -9, registrar goodbye —
# under mixed-tenant Zipf load with slow-loris and malformed-frame
# adversaries attacking the same front door. Verdict comes from
# loadgen -scenario soak: zero wrong answers, zero interactive-tenant
# errors, no windowed-p99 cliff. SOAK_DURATION overrides the default.
soak:
	bash scripts/soak.sh
