// Package repro is a from-scratch Go reproduction of "PrIU: A
// Provenance-Based Approach for Incrementally Updating Regression Models"
// (Wu, Tannen, Davidson; SIGMOD 2020).
//
// The public entry point is the repro/priu package: a uniform Updater
// interface over every model family (train once with provenance capture,
// then apply any deletion incrementally), functional options for
// configuration, a by-name family registry, and self-contained snapshots.
// repro/priu/service builds the versioned, multi-tenant HTTP deletion
// service on it (v1 + v2 with typed errors, snapshot import/export and
// NDJSON streaming deletions; API-key tenants with per-tenant quotas and
// rate limits), repro/priu/client is the typed Go SDK for the /v2 surface,
// and repro/priu/bench reproduces the paper's evaluation. Everything under
// internal/ is implementation detail.
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory and per-experiment index, and EXPERIMENTS.md for the
// paper-vs-measured record. The benchmark harness in bench_test.go
// regenerates every table and figure of the paper's evaluation section;
// cmd/priubench runs the same experiments as a CLI.
//
// # Parallel architecture
//
// Every hot kernel routes its row loop through internal/par, a chunked
// worker pool with a serial fallback below a per-kernel work cutoff:
//
//   - internal/mat: MulInto and GramInto/RowGramInto are cache-blocked
//     (4-row rank-2 GEMM micro-kernel; 4×4 upper-triangle Gram register
//     tiles over L2-sized row blocks, lower triangle mirrored) and
//     row-block-parallel; MulVecInto, MulVecTInto, AddScaled and the
//     incremental eigenvalue updates run block-parallel; NewEigenSym is a
//     tournament-ordered parallel cyclic Jacobi that applies each round in
//     one pass over whole rows, so no two workers write one cache line.
//   - internal/sparse: CSR SpMV is row-parallel with a grain that adapts to
//     the average row density; SpMVᵀ reduces per-chunk dense accumulators.
//   - internal/core: provenance capture is parallel — linear capture fans
//     independent iterations, logistic/multinomial capture fan the
//     per-member linearization dots and per-class cache builds, and
//     weightedGramCache routes through the blocked Gram kernels — and the
//     PrIU-opt eigenbasis recurrences (Eq 17 / Sec 5.4) split across
//     coordinates, and multinomial classes update in parallel. The sparse
//     logistic replay is serial and O(nnz(batch)) per iteration: it holds
//     the weights as w = s·v (gbm.SparseSGD, shared with sparse capture and
//     BaseL retraining), so the decay is one multiply.
//   - priu/service: the session store is hash-sharded (per-shard locks and
//     counters), batched deletions execute independent sessions' updates
//     concurrently on the same pool, and an optional LRU budget
//     (-max-sessions / -max-bytes) bounds resident provenance.
//
// Every kernel is bitwise-deterministic at any worker count: outputs are
// written by exactly one chunk, or reduced via par.MapReduceDet, whose chunk
// plan and fold order depend only on the shape (par.DetGrain) — never on the
// pool size, the calibrated cutoffs or chunk completion order — so parallel
// capture cannot perturb the store/fleet snapshot contract. The other chunk
// grains derive from measured cutoffs: the cmds call par.Calibrate at
// startup, and -par-minwork / PRIU_PAR_MINWORK pin the cutoffs for
// reproducible runs (calibration only steers chunking, never results).
//
// priu.SetWorkers is the single parallelism knob (priuserve -workers);
// Benchmark*Parallel in bench_parallel_test.go reports the measured
// serial-vs-parallel speedup of each kernel, bench_kernels_test.go gates the
// blocked kernels' single-thread speedup over the scalar loops they replaced
// (make kernel-bench), and CI archives the metrics per commit and gates them
// against BENCH_BASELINE.json via cmd/benchguard.
//
// # Tiered session store
//
// repro/priu/store extracts session storage from the service behind a Store
// interface (Get/Put/Delete/Touch/Range/Stats) with two tiers: the sharded
// in-memory LRU (store.Memory) and a spill-to-disk wrapper (store.Tiered,
// priuserve -store-dir). The deletion guarantee the paper is about survives
// every tier move: an evicted session spills as a self-contained session
// snapshot — family, training data, cumulative deletion log, provenance —
// written atomically (temp file + rename) under a content-addressed name;
// the next touch restores it, replaying the deletion log, with singleflight
// collapsing concurrent restores of the same cold session. SIGTERM snapshots
// all dirty resident sessions and boot re-indexes the spill directory, so a
// kill/restart serves every prior session with a bitwise-identical model and
// every honored deletion still deleted. All seven engine families persist,
// including the PrIU-opt variants, whose eigendecompositions are rebuilt
// from the persisted stabilized coefficients on load (internal/core
// persist_opt.go) through the kernels capture used, bit for bit. The
// crash-recovery suite (make spill-smoke) and BenchmarkSpillRestore (gated
// by benchguard) keep the round trip honest.
//
// # Spill-tier lifecycle
//
// The disk tier is run by a lifecycle manager (priu/store/lifecycle.go):
// a bounded write-behind queue snapshots sessions eagerly at registration
// and after every applied deletion, so an LRU eviction usually finds its
// victim clean-with-current-disk-copy and just drops the resident copy —
// no spill IO under the victim's lock on the evicting request (backpressure
// falls back to the synchronous spill; BenchmarkEvictLatency gates the win).
// priuserve -spill-max-bytes bounds the spill directory with LRU file
// eviction (dirty residents' warm backups first, then cold sessions — whose
// drop is a counted disk_eviction), an age-based GC sweeps orphaned files,
// and the spill_dir_bytes gauge is maintained incrementally from a boot-time
// seed scan. Resident-tier evictions are fair-share across tenants (the
// tenant furthest over its equal share of resident bytes loses its LRU
// session), and per-tenant max_spill_bytes caps bound each tenant's disk
// share (HTTP 507 "spill_quota" at the cap). The lifecycle is hardened by a
// property/oracle churn suite and an injected-fault chaos suite in
// priu/store, plus native fuzz targets (make fuzz-smoke) over the snapshot,
// spill-envelope and CSR-upload decoders; make cover gates the storage and
// service layers' statement coverage.
//
// # Multi-tenant API
//
// The service resolves "Authorization: Bearer" API keys to tenants through a
// hot-reloadable JSON key file (priuserve -auth-keys, SIGHUP to reload;
// constant-time key comparison over SHA-256 digests). Each tenant gets its
// own session namespace — storage IDs are "tenant/sess-N", so tenants cannot
// see, list, delete or snapshot each other's sessions, and the namespace
// survives spills and restarts because it rides in the session ID — plus a
// hard session/byte quota enforced atomically at registration (typed 429
// "insufficient_quota"; the store's eviction budget stays a cache boundary,
// never a quota bypass) and a token-bucket rate limit over deletion rows on
// the streaming endpoint (typed "rate_limited" with retry_after_seconds, or
// HTTP 429 + Retry-After when the bucket is empty at open). -auth selects
// off/optional/required; anonymous callers under off/optional behave exactly
// like the pre-tenant service. GET /v2/tenants/self/stats reports the
// calling tenant's usage and counters. repro/priu/client wraps all of /v2 —
// session CRUD, snapshot streaming, full-duplex deletions with server-digest
// verification and Retry-After-aware SendWait — and `make auth-smoke` drives
// a real authenticated priuserve through the SDK, cmd/priutrain -server and
// examples/client end to end.
//
// # What-if query plane
//
// POST /v2/sessions/{id}/whatif turns the provenance capture into a query
// surface: a batch of candidate deletion sets (JSON body, or an interactive
// NDJSON stream) is evaluated against clone-on-read state forked from the
// session — never the session's own updater, deletion log or spill file —
// and answered per set with the hypothetical parameter digest and metric
// deltas versus the live model, bitwise identical to committing the same
// sorted set. The priu.WhatIfer capability (internal/core whatif.go) gives
// the opt families a forkable incremental cursor (Apply folds one removed
// row into the partial sums, Eval rolls the eigenbasis recurrences);
// families without the capability fall back to pure replay, same answers.
// priu.WhatIfPlanner arranges each batch as a prefix tree over deletion IDs
// — overlapping sets apply their shared prefix once and fork, duplicates
// memoize — and fans leaf evaluations onto the worker pool (priuserve
// -whatif-workers), with a per-tenant concurrency cap (-whatif-limit, typed
// 429 "whatif_limited"). Sessions are pinned into the resident tier for the
// duration of what-if and snapshot-export streams so the LRU evictor cannot
// spill them mid-read. GET /v2/meta describes the server (version, families,
// feature flags, limits), /v1 responses carry Deprecation/Sunset headers,
// and both session listings paginate (?limit=&cursor=). The SDK exposes
// WhatIf/StreamWhatIf and an auto-paginating session iterator;
// `make whatif-smoke` gates digest-faithfulness end to end and
// BenchmarkWhatIfBatch gates the prefix-sharing speedup via benchguard.
package repro
