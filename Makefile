GO ?= go
SHA ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo local)

# Per-target fuzzing budget for fuzz-smoke (short on purpose: CI catches
# crashes and regressions against the committed corpora, long runs happen
# locally with FUZZTIME=5m etc.).
FUZZTIME ?= 10s

# Coverage watermarks (statement %). Set just under the measured coverage of
# the storage and service layers; drop below = deleted tests or significant
# untested code. Refresh deliberately when the floors move up.
STORE_COVER_MIN ?= 85
SERVICE_COVER_MIN ?= 81

.PHONY: all build test race bench bench-guard bench-baseline kernel-bench spill-smoke auth-smoke whatif-smoke fleet-smoke obs-smoke fuzz-smoke cover fmt fmt-check vet ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark smoke: one iteration of every benchmark, no tests.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Bench smoke + regression gate: archives the speedup metrics as
# BENCH_<sha>.json and fails if any metric regresses >20% vs the committed
# baseline (cmd/benchguard). The redirect-then-cat shape (not a tee pipe)
# keeps a panicking benchmark failing the target.
bench-guard:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./... > bench.out || (cat bench.out; exit 1)
	cat bench.out
	$(GO) run ./cmd/benchguard -in bench.out -json BENCH_$(SHA).json \
		-baseline BENCH_BASELINE.json -commit $(SHA)

# Kernel-speed gate: just the blocked/parallel compute-core benchmarks
# (GEMM, Gram, Jacobi eigensolver, capture) against the committed baseline.
# GEMM/Gram pin one worker and compare blocked vs scalar kernels, so the
# ≥1.5× floor holds even on a 1-core runner. Finishes in well under a minute.
kernel-bench:
	$(GO) test -bench='GEMMBlocked|GramBlocked|EigenSym|CaptureParallel' \
		-benchtime=2x -run='^$$' -timeout=300s . > kernel_bench.out || (cat kernel_bench.out; exit 1)
	cat kernel_bench.out
	$(GO) run ./cmd/benchguard -in kernel_bench.out \
		-baseline BENCH_BASELINE.json -commit $(SHA)

# Refresh the committed baseline from a fresh bench run on this machine.
bench-baseline:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./... > bench.out || (cat bench.out; exit 1)
	cat bench.out
	$(GO) run ./cmd/benchguard -in bench.out -json BENCH_BASELINE.json -commit $(SHA)

# Spill smoke: the tiered-store durability suite against a tmpdir store-dir —
# kill/restart round trip (all seven families, bitwise-identical models,
# deletion logs intact), the evict→touch→restore races, and the LSM chaos
# suite: kill/restart through a full base→delta→fold cycle (bitwise-
# identical restores), torn delta segments, mid-fold crashes, folds racing
# deletes, evictions and newer spills, tombstone persistence across reboot,
# and the off-lock publish/stale-cut generation guards. Under -race. The
# store's two searches then run again at GOMAXPROCS 1, 2 and 4, because
# base writes happen on the cut paths of every caller.
spill-smoke:
	$(GO) test -race -count=1 \
		-run 'TestCrashRestartDurability|TestEvictTouchRestoreUnderLoad|TestTiered|TestChaos|TestCrashEnumeration|TestFaultPointRegistry|RunsOffSessionLock|TestSyncSpillFallbackUsesCurrentGeneration|TestDeltaPublishDiscardedAfterDeleteAndReput|TestStorePropertyOracle' \
		./priu/service ./priu/store
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'TestStorePropertyOracle|TestCrashEnumeration' ./priu/store

# Fuzz smoke: each native fuzz target runs its committed seed corpus plus a
# short random budget. One `go test -fuzz` invocation per target (the flag
# must match exactly one fuzz function per package). Minimizing a new
# interesting input may take 60s by default, which would spend the whole
# budget on the first find; one second keeps the engine exploring.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadSessionSnapshot$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./priu
	$(GO) test -run '^$$' -fuzz '^FuzzSpillEnvelope$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./priu/store
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaSegment$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./priu/store
	$(GO) test -run '^$$' -fuzz '^FuzzCSRUpload$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./priu/service
	$(GO) test -run '^$$' -fuzz '^FuzzCreateSessionDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./priu/service

# Coverage gate: the storage and service layers must stay above their
# watermarks (cmd/covergate computes statement coverage from the profiles).
cover:
	$(GO) test -count=1 -coverprofile=cover_store.out ./priu/store
	$(GO) test -count=1 -coverprofile=cover_service.out ./priu/service
	$(GO) run ./cmd/covergate -profile cover_store.out -name priu/store -min $(STORE_COVER_MIN)
	$(GO) run ./cmd/covergate -profile cover_service.out -name priu/service -min $(SERVICE_COVER_MIN)

# Auth smoke: builds the real priuserve/priutrain/examples-client binaries,
# starts an authenticated server (-auth required, tenant key file) and drives
# it through priu/client — 401 on missing/unknown keys, 200 train→stream→
# snapshot round trips from both CLIs, 429 on tenant quotas and stream rate
# limits (with Retry-After resume), and a SIGHUP key rotation.
auth-smoke:
	$(GO) test -race -count=1 -run 'TestAuthSmoke' ./priu/client

# What-if smoke: builds and starts the real priuserve, previews overlapping
# candidate deletion sets through the SDK (prefix-tree cache hits > 0), then
# commits one candidate on a snapshot clone and checks the committed digest is
# bitwise identical to the what-if prediction — live session untouched — and
# runs priutrain's -whatif preview-then-commit mode against the same server.
whatif-smoke:
	$(GO) test -race -count=1 -run 'TestWhatIfSmoke' ./priu/client

# Fleet smoke: builds the real priuserve/priublob binaries, starts one blob
# server plus three replicas wired into a fleet (-node/-peers/-blob), creates
# sessions and streams deletions through non-owner nodes (redirects/proxying),
# SIGKILLs one replica, and checks every session — including the dead node's —
# is served by the survivors with bitwise-identical parameters, acknowledged
# deletions stay deleted, and the degraded fleet still accepts new sessions.
fleet-smoke:
	$(GO) test -race -count=1 -run 'TestFleetSmoke' ./priu/client

# Observability smoke: builds the real priuserve, boots it with the operator
# listener (-admin-addr) and a 1ms slow-op threshold, drives a train/delete/
# what-if workload and asserts the /metrics scrape has every family present
# and monotone, a request trace is fetchable by ID, pprof answers, the
# slow-op log fires, and none of the admin surface leaks onto the tenant port.
obs-smoke:
	$(GO) test -race -count=1 -run 'TestObsSmoke' ./priu/client

fmt:
	gofmt -w .

# Fails (with the offending files listed) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Everything CI runs, in one target, for local parity.
ci: build vet fmt-check race spill-smoke auth-smoke whatif-smoke fleet-smoke obs-smoke fuzz-smoke cover bench
