// Command priuserve runs the PrIU deletion service over HTTP.
//
// Usage:
//
//	priuserve -addr :8080 -workers 0 -max-sessions 0 -max-bytes 0 \
//	          -store-dir /var/lib/priu -spill-max-bytes 0 \
//	          -drain-timeout 15s \
//	          -whatif-workers 0 -whatif-limit 8 \
//	          -auth required -auth-keys /etc/priu/keys.json \
//	          -blob http://blob:8090 \
//	          -node http://a:8080 -peers http://a:8080,http://b:8080 \
//	          -probe-interval 3s \
//	          -admin-addr 127.0.0.1:9090 -slow-op-ms 250
//
// Endpoints (see priu/service for the full wire formats). The v1 rows are
// deprecated wire-format adapters over the v2 create and commit core: they
// carry Deprecation/Sunset headers pointing at /v2/meta, share the v2 error
// statuses and tenant rate limits, and answer errors as {"error":"..."}.
//
//	POST   /v1/train                   register data + hyperparameters (deprecated)
//	POST   /v1/delete                  incremental removal; batch items run at their owner (deprecated)
//	GET    /v1/model/ID                fetch a session's current parameters (deprecated)
//	GET    /v1/sessions                list the caller's sessions (deprecated)
//	GET    /v1/stats                   per-shard, per-session and per-tier counters (deprecated)
//	POST   /v2/sessions                train (dense or CSR), or restore a snapshot
//	GET    /v2/sessions                list the caller's sessions (paginated: ?limit=&cursor=)
//	GET    /v2/sessions/{id}           session metadata + parameters
//	DELETE /v2/sessions/{id}           drop a session (and its spill file)
//	GET    /v2/sessions/{id}/snapshot  export a self-contained snapshot
//	POST   /v2/sessions/{id}/deletions NDJSON stream of removal batches
//	POST   /v2/sessions/{id}/whatif    evaluate candidate deletion sets without committing
//	GET    /v2/meta                    version, features and limits descriptor
//	GET    /v2/tenants/self/stats      the calling tenant's counters
//	GET    /healthz                    load-balancer probe (never authenticated)
//
// -auth-keys names a JSON tenant key file (see service.TenantConfig):
// "Authorization: Bearer" keys resolve to tenants, each with its own session
// namespace, session/byte quota and deletion rate limit. The file is
// re-read on SIGHUP, so keys rotate and limits change without a restart.
// -auth selects the mode: "off" ignores keys, "optional" (default) honors
// keys but admits anonymous callers, "required" rejects everything without a
// valid key (401) except /healthz.
//
// -workers sets the kernel worker-pool parallelism (0 = GOMAXPROCS).
// -max-sessions / -max-bytes bound the resident tier; when a registration
// exceeds a budget the least recently used sessions are evicted (reported in
// /v1/stats). 0 disables a budget.
//
// -store-dir enables the tiered session store: evicted sessions spill to the
// directory as priu session snapshots and lazily restore on the next touch,
// SIGTERM/SIGINT snapshots every dirty resident session before exit, and a
// restarted server re-indexes the directory — so a kill/restart loses no
// session, model or deletion log.
// -drain-timeout bounds how long shutdown waits for in-flight requests
// before snapshotting; the shutdown then stops the write-behind queue,
// flushes its backlog, and only then drains stragglers, so everything the
// queue accepted reaches disk exactly once.
//
// The spill tier is managed by a lifecycle manager with fixed settings
// (priu/store's defaults; the end-to-end benchmark runs the same ones):
//
//   - write-behind: one background worker snapshots sessions eagerly as
//     they are registered and after every mutation, so LRU evictions
//     usually just drop the resident copy instead of paying snapshot IO on
//     the evicting request's goroutine. A victim the worker has not reached
//     yet pays the synchronous spill — never a lost session.
//   - compaction: a delta chain never holds more than 8 segments; the next
//     cut of a full chain folds it into a new base by copying the old base's
//     snapshot bytes under the session's full deletion log.
//   - disk budget: -spill-max-bytes bounds the spill directory; when a new
//     spill would exceed it, least-recently-used spill files are evicted
//     (warm backups of dirty resident sessions first, then cold sessions —
//     whose drop is counted as a disk_eviction in /v1/stats).
//   - GC: every minute, orphaned session files and stale temp files older
//     than an hour are removed and the spill_dir_bytes gauge is refreshed
//     from the directory. With -blob, the same sweep retries blob pushes
//     and blob deletes that failed (so does a restart; a session's next
//     spill pushes its chain anyway).
//
// Per-tenant "max_spill_bytes" caps in the -auth-keys file bound each
// tenant's share of the spill volume: spills over the cap are rejected (the
// eviction drops the session) and a tenant at its cap receives HTTP 507
// spill_quota on new registrations until it deletes sessions.
//
// The what-if plane (POST /v2/sessions/{id}/whatif) evaluates candidate
// deletion sets against a session's provenance without committing anything.
// -whatif-workers bounds the parallelism of one batch's prefix-tree
// evaluation (0 = GOMAXPROCS); -whatif-limit caps concurrent what-if
// requests per tenant (0 = unlimited), the excess receiving a typed 429.
//
// Fleet flags (see priu/service's "Distributed operation" and cmd/priublob):
//
//   - -blob URL slots a shared blob tier (a priublob server) under the spill
//     directory: spills are pushed write-behind into the blob store and the
//     local spill dir becomes a read-through cache, so a node's disk can be
//     lost without losing sessions. Requires -store-dir; a blob store that
//     is unreachable at boot fails startup rather than serving a degraded
//     view.
//   - -node URL is this replica's public base URL; -peers is the static
//     comma-separated member list (every replica passes the same list,
//     itself included). Together they enable fleet routing: rendezvous-hash
//     placement over session IDs, 307 redirects / transparent stream
//     proxying to owners, and peer handoff through the blob tier when
//     membership changes. A fleet should share one -blob store — without it
//     a dead node's sessions are unreachable until it returns.
//   - -probe-interval sets the peer liveness-probe cadence: unresponsive
//     peers are demoted from the placement ring (their keys re-home to
//     survivors) and re-admitted when probes succeed again.
//
// Observability (see the README's "Observability" section):
//
//   - -admin-addr boots a second, operator-only listener serving GET /metrics
//     (Prometheus text exposition), GET /v2/debug/traces[/{id}] (recent
//     request span trees) and /debug/pprof/*. The admin surface is never
//     tenant-authenticated — bind it to localhost or an internal interface,
//     never the tenant port.
//   - Every request carries an X-Priu-Trace ID (minted at ingress when the
//     client sends none) that follows the request through fleet redirects and
//     proxied streams; traces slower than -slow-op-ms land in the log with
//     their hottest span. -slow-op-ms <= 0 disables the slow-op log.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/priu"
	"repro/priu/cluster"
	"repro/priu/obs"
	"repro/priu/service"
	"repro/priu/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "kernel worker-pool size (0 = GOMAXPROCS)")
	maxSessions := flag.Int("max-sessions", 0, "max resident sessions before LRU eviction (0 = unbounded)")
	maxBytes := flag.Int64("max-bytes", 0, "max resident session bytes (data + provenance) before LRU eviction (0 = unbounded)")
	maxBatch := flag.Int("max-batch", 0, "max removals per v2 deletion batch (0 = default)")
	storeDir := flag.String("store-dir", "", "spill directory for the tiered session store (empty = memory only)")
	spillMaxBytes := flag.Int64("spill-max-bytes", 0, "disk budget for the spill directory; LRU spill files are evicted to stay under it (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "max wait for in-flight requests before the shutdown snapshot")
	whatifWorkers := flag.Int("whatif-workers", 0, "parallel evaluators per what-if batch (0 = GOMAXPROCS)")
	whatifLimit := flag.Int("whatif-limit", 8, "max concurrent what-if requests per tenant (0 = unlimited)")
	authMode := flag.String("auth", "optional", "API-key auth mode: off | optional | required")
	authKeys := flag.String("auth-keys", "", "JSON tenant key file (hot-reloaded on SIGHUP)")
	blob := flag.String("blob", "", "shared blob spill tier: a priublob base URL (http://...) or a local directory; requires -store-dir")
	node := flag.String("node", "", "this replica's advertised base URL (required with -peers)")
	peers := flag.String("peers", "", "comma-separated advertised base URLs of every fleet replica (enables consistent-hash routing)")
	probeInterval := flag.Duration("probe-interval", 3*time.Second, "fleet liveness-probe period (0 = probe only on request failures)")
	adminAddr := flag.String("admin-addr", "", "operator listener for /metrics, /v2/debug/traces and /debug/pprof (empty = disabled; never expose to tenants)")
	slowOpMs := flag.Int("slow-op-ms", 250, "log traces slower than this many milliseconds with their hottest span (<=0 = disabled)")
	flag.Parse()
	priu.SetWorkers(*workers)

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	tracer.SetSlowOp(time.Duration(*slowOpMs) * time.Millisecond)

	mode, err := service.ParseAuthMode(*authMode)
	if err != nil {
		log.Fatalf("priuserve: %v", err)
	}
	var keyring *service.Keyring
	if *authKeys != "" {
		keyring, err = service.LoadKeyring(*authKeys)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("priuserve: loaded %d tenant key(s) from %s", keyring.Len(), *authKeys)
	}
	if mode == service.AuthRequired && keyring == nil {
		log.Fatal("priuserve: -auth required needs -auth-keys")
	}

	memOpts := []store.MemoryOption{store.WithMaxSessions(*maxSessions), store.WithMaxBytes(*maxBytes)}
	if keyring != nil {
		memOpts = append(memOpts, store.WithTenantLimits(keyring.Limits))
	}
	mem := store.NewMemory(memOpts...)
	var st store.Store = mem
	if *blob != "" && *storeDir == "" {
		log.Fatal("priuserve: -blob needs -store-dir (the local spill directory is the blob tier's cache)")
	}
	if *storeDir != "" {
		tieredOpts := []store.TieredOption{
			store.WithSpillMaxBytes(*spillMaxBytes),
			store.WithMetrics(store.NewTierMetrics(reg)),
		}
		if *blob != "" {
			var bs store.BlobStore
			if strings.HasPrefix(*blob, "http://") || strings.HasPrefix(*blob, "https://") {
				bs = store.NewHTTPBlob(*blob, nil)
			} else {
				fsb, err := store.NewFSBlob(*blob)
				if err != nil {
					log.Fatal(err)
				}
				bs = fsb
			}
			tieredOpts = append(tieredOpts, store.WithBlobStore(bs))
		}
		tiered, err := store.NewTiered(*storeDir, mem, tieredOpts...)
		if err != nil {
			log.Fatal(err)
		}
		st = tiered
	}
	srvOpts := []service.ServerOption{
		service.WithStore(st),
		service.WithMaxSessions(*maxSessions),
		service.WithMaxBytes(*maxBytes),
		service.WithMaxRemovalsPerBatch(*maxBatch),
		service.WithWhatIfWorkers(*whatifWorkers),
		service.WithWhatIfLimit(*whatifLimit),
		service.WithAuth(mode, keyring),
		service.WithObservability(reg, tracer),
	}
	var member *cluster.Membership
	if *peers != "" {
		if *node == "" {
			log.Fatal("priuserve: -peers needs -node (this replica's advertised base URL)")
		}
		if *blob == "" {
			log.Print("priuserve: WARNING: -peers without -blob — sessions cannot hand off across replicas; a node loss loses its sessions")
		}
		var list []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(strings.TrimRight(p, "/")); p != "" {
				list = append(list, p)
			}
		}
		var err error
		member, err = cluster.New(cluster.Config{
			Self:          strings.TrimRight(*node, "/"),
			Peers:         list,
			ProbeInterval: *probeInterval,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer member.Close()
		srvOpts = append(srvOpts, service.WithCluster(member))
	}
	srv := service.NewServer(srvOpts...)
	if member != nil {
		log.Printf("priuserve: fleet member %s of %d replicas (ring v%d)", member.Self(), len(member.Peers()), member.Ring().Version())
	}
	if n := st.Stats().Spilled; n > 0 {
		log.Printf("priuserve: re-indexed %d spilled session(s) from %s", n, *storeDir)
	}

	// SIGHUP hot-reloads the tenant key file: rotated keys and changed
	// quotas/rate limits apply to the next request, no restart or dropped
	// session required. A bad file keeps the previous keyring.
	if keyring != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := keyring.Reload(); err != nil {
					log.Printf("priuserve: SIGHUP reload failed (keeping previous keys): %v", err)
					continue
				}
				log.Printf("priuserve: reloaded %d tenant key(s) from %s", keyring.Len(), *authKeys)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	var admin *http.Server
	if *adminAddr != "" {
		admin = &http.Server{Addr: *adminAddr, Handler: srv.AdminHandler()}
		go func() {
			if err := admin.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- err
			}
		}()
		log.Printf("priuserve: admin listener on %s (/metrics, /v2/debug/traces, /debug/pprof) — keep this off the tenant network", *adminAddr)
	}
	log.Printf("priuserve %s listening on %s (%d workers, max-sessions=%d, max-bytes=%d, store-dir=%q)",
		priu.Version, *addr, priu.Workers(), *maxSessions, *maxBytes, *storeDir)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// SIGTERM drain: stop accepting, let in-flight requests settle, then
	// snapshot every dirty resident session so the next boot loses nothing.
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("priuserve: shutdown: %v", err)
	}
	if admin != nil {
		if err := admin.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("priuserve: admin shutdown: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		log.Printf("priuserve: draining session store: %v", err)
	}
	log.Printf("priuserve: shutdown complete")
}
