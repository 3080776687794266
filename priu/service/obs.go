package service

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/par"
	"repro/priu/obs"
	"repro/priu/store"
)

// Observability integration: every Server owns an obs.Registry (the single
// source of truth for every gauge the JSON surfaces also report) and an
// obs.Tracer (per-request span trees, stitched across the fleet by the
// X-Priu-Trace header). The request-side counters the server used to keep as
// raw atomics are registry counters now — same atomic hot path, one extra
// pointer indirection — so /v1/stats, /healthz and /metrics can never drift
// apart: they read the same cells.

// WithObservability injects a pre-built registry and tracer (cmd/priuserve
// shares the registry with the store's tier histograms; tests inspect both).
// Either may be nil; NewServer fills the gaps with fresh instances.
func WithObservability(reg *obs.Registry, tr *obs.Tracer) ServerOption {
	return func(s *Server) {
		s.obsReg = reg
		s.tracer = tr
	}
}

// Observability returns the server's metrics registry and tracer — the admin
// listener serves them, tests inspect them.
func (s *Server) Observability() (*obs.Registry, *obs.Tracer) { return s.obsReg, s.tracer }

// tenantVecs are the per-tenant metric families; tc() resolves one tenant's
// children out of them (idempotent, so the tenantReqs LoadOrStore race is
// harmless — both racers resolve the same underlying cells).
type tenantVecs struct {
	trains          *obs.CounterVec
	deletes         *obs.CounterVec
	deleteErrors    *obs.CounterVec
	rowsDeleted     *obs.CounterVec
	rateLimited     *obs.CounterVec
	quotaRejections *obs.CounterVec
	whatifs         *obs.CounterVec
	whatifSets      *obs.CounterVec
	whatifActive    *obs.GaugeVec
	whatifLimited   *obs.CounterVec
}

// newTenantCounters resolves one tenant's pre-resolved metric handles.
func (s *Server) newTenantCounters(name string) *tenantCounters {
	v := &s.tenantVecs
	return &tenantCounters{
		trains:          v.trains.With(name),
		deletes:         v.deletes.With(name),
		deleteErrors:    v.deleteErrors.With(name),
		rowsDeleted:     v.rowsDeleted.With(name),
		rateLimited:     v.rateLimited.With(name),
		quotaRejections: v.quotaRejections.With(name),
		whatifs:         v.whatifs.With(name),
		whatifSets:      v.whatifSets.With(name),
		whatifActive:    v.whatifActive.With(name),
		whatifLimited:   v.whatifLimited.With(name),
	}
}

// initObs builds (or adopts) the registry and tracer and registers every
// metric family the service owns, plus func-backed families over the
// subsystems that keep their own atomics (store Stats(), the par pool,
// cluster membership). Called once from NewServer after the store exists.
func (s *Server) initObs() {
	if s.obsReg == nil {
		s.obsReg = obs.NewRegistry()
	}
	if s.tracer == nil {
		s.tracer = obs.NewTracer(0)
	}
	reg := s.obsReg

	// HTTP surface.
	s.httpReqs = reg.CounterVec("priu_http_requests_total",
		"HTTP requests by API generation, normalized route and status code.",
		"gen", "route", "code")
	s.httpSeconds = reg.HistogramVec("priu_http_request_seconds",
		"HTTP request latency by API generation and normalized route.",
		nil, "gen", "route")

	// Deletion plane.
	s.captureSeconds = reg.Histogram("priu_capture_seconds",
		"Training-with-capture duration per registered session.", nil)
	s.updateSeconds = reg.Histogram("priu_update_seconds",
		"Incremental deletion-update duration per applied batch.", nil)
	s.deletionRows = reg.Counter("priu_deletion_rows_total",
		"Training rows removed by applied deletions, all tenants.")
	s.streamSeconds = reg.Histogram("priu_deletion_stream_seconds",
		"Lifetime of one NDJSON deletion stream, connect to disconnect.",
		[]float64{0.01, 0.1, 1, 10, 60, 300, 1800})
	s.snapshotSeconds = reg.Histogram("priu_snapshot_serialize_seconds",
		"Session snapshot serialization duration.", nil)

	// What-if plane.
	s.whatifs = reg.Counter("priu_whatif_streams_total",
		"Completed what-if preview streams.")
	s.whatifSets = reg.Counter("priu_whatif_sets_total",
		"Candidate deletion sets evaluated by the what-if plane.")
	s.whatifCacheHits = reg.Counter("priu_whatif_cache_hits_total",
		"Prefix-tree cache hits: shared-prefix rows the planners did not re-apply.")
	s.whatifPlanSeconds = reg.Histogram("priu_whatif_plan_seconds",
		"What-if planner construction duration per stream.", nil)
	s.whatifEvalSeconds = reg.Histogram("priu_whatif_eval_seconds",
		"What-if candidate-set evaluation duration, per set.", nil)

	// Fleet routing.
	s.fleetRedirects = reg.Counter("priu_fleet_redirects_total",
		"Session requests answered with a 307 to the owning replica.")
	s.fleetProxied = reg.Counter("priu_fleet_proxied_total",
		"Session requests transparently proxied to the owning replica.")
	s.fleetHandoffs = reg.Counter("priu_fleet_handoffs_total",
		"Peer-handoff passes run after membership changes.")
	s.fleetReleased = reg.Counter("priu_fleet_released_total",
		"Sessions released to the blob tier by peer handoff.")

	// Per-shard request counters (the /v1/stats shard breakdown).
	shardTrains := reg.CounterVec("priu_shard_trains_total",
		"Session registrations by store shard.", "shard")
	shardDeletes := reg.CounterVec("priu_shard_deletes_total",
		"Deletion requests by store shard.", "shard")
	shardDeleteErrors := reg.CounterVec("priu_shard_delete_errors_total",
		"Failed deletion requests by store shard.", "shard")
	for i := range s.reqs {
		sh := strconv.Itoa(i)
		s.reqs[i] = reqCounters{
			trains:       shardTrains.With(sh),
			deletes:      shardDeletes.With(sh),
			deleteErrors: shardDeleteErrors.With(sh),
		}
	}

	// Per-tenant request counters ("" is the anonymous tenant).
	s.tenantVecs = tenantVecs{
		trains: reg.CounterVec("priu_tenant_trains_total",
			"Session registrations by tenant.", "tenant"),
		deletes: reg.CounterVec("priu_tenant_deletes_total",
			"Deletion requests by tenant.", "tenant"),
		deleteErrors: reg.CounterVec("priu_tenant_delete_errors_total",
			"Failed deletion requests by tenant.", "tenant"),
		rowsDeleted: reg.CounterVec("priu_tenant_rows_deleted_total",
			"Training rows removed by tenant.", "tenant"),
		rateLimited: reg.CounterVec("priu_tenant_rate_limited_total",
			"Deletion batches delayed or rejected by the tenant rate limit.", "tenant"),
		quotaRejections: reg.CounterVec("priu_tenant_quota_rejections_total",
			"Registrations rejected by tenant quota.", "tenant"),
		whatifs: reg.CounterVec("priu_tenant_whatif_streams_total",
			"Completed what-if streams by tenant.", "tenant"),
		whatifSets: reg.CounterVec("priu_tenant_whatif_sets_total",
			"What-if candidate sets evaluated by tenant.", "tenant"),
		whatifActive: reg.GaugeVec("priu_tenant_whatif_active",
			"In-flight what-if streams by tenant (the concurrency-limit gauge).", "tenant"),
		whatifLimited: reg.CounterVec("priu_tenant_whatif_limited_total",
			"What-if streams rejected by the per-tenant concurrency limit.", "tenant"),
	}

	// Store tiers, read from Stats() at scrape time. One scrape coalesces all
	// of these into a single Stats() call (see cachedStats).
	stats := s.cachedStats()
	reg.GaugeFunc("priu_store_resident_sessions",
		"Sessions in the in-memory tier.", func() int64 { return int64(stats().Resident) })
	reg.GaugeFunc("priu_store_resident_bytes",
		"Bytes held by the in-memory tier.", func() int64 { return stats().ResidentBytes })
	reg.CounterFunc("priu_store_budget_evictions_total",
		"Sessions evicted by the resident LRU budget.", func() int64 { return stats().BudgetEvictions })
	reg.CounterFunc("priu_store_explicit_deletes_total",
		"Sessions dropped by client DELETE.", func() int64 { return stats().ExplicitDeletes })
	reg.GaugeFunc("priu_store_spilled_sessions",
		"Sessions resident only in the disk tier.", func() int64 { return int64(stats().Spilled) })
	reg.GaugeFunc("priu_store_spilled_bytes",
		"Approximate resident footprint of disk-tier-only sessions.", func() int64 { return stats().SpilledBytes })
	reg.CounterFunc("priu_store_spills_total",
		"Session snapshots spilled to disk.", func() int64 { return stats().Spills })
	reg.CounterFunc("priu_store_restores_total",
		"Sessions restored from a colder tier.", func() int64 { return stats().Restores })
	reg.GaugeFunc("priu_store_spill_dir_bytes",
		"On-disk size of the spill directory.", func() int64 { return stats().SpillDirBytes })
	reg.CounterFunc("priu_store_write_behind_spills_total",
		"Spills performed by the write-behind worker (subset of spills).", func() int64 { return stats().WriteBehindSpills })
	reg.GaugeFunc("priu_store_spill_queue_depth",
		"Write-behind backlog (dirty sessions waiting + in the worker's current pass).", func() int64 { return int64(stats().SpillQueueDepth) })
	reg.CounterFunc("priu_store_disk_evictions_total",
		"Disk-only sessions dropped by the spill-directory budget.", func() int64 { return stats().DiskEvictions })
	reg.CounterFunc("priu_store_gc_removals_total",
		"Orphaned spill files removed by the age-based GC.", func() int64 { return stats().GCRemovals })
	reg.CounterFunc("priu_store_delta_spills_total",
		"Spills that wrote an O(batch) delta segment (subset of spills).", func() int64 { return stats().DeltaSpills })
	reg.CounterFunc("priu_store_compactions_total",
		"Delta chains folded into a new base file.", func() int64 { return stats().Compactions })
	reg.GaugeFunc("priu_store_delta_segments",
		"Delta segments currently on disk across all chains.", func() int64 { return int64(stats().DeltaSegments) })
	reg.CounterFunc("priu_store_stale_spills_total",
		"Publishes discarded because a newer cut won the chain race.", func() int64 { return stats().StaleSpills })
	reg.GaugeFunc("priu_store_pending_tombstones",
		"Deletion tombstones awaiting local-file or blob removal.", func() int64 { return int64(stats().PendingTombstones) })
	reg.GaugeFunc("priu_store_tenants",
		"Distinct named tenants with stored sessions.", func() int64 { return int64(tenantsWithData(stats())) })

	// Blob tier (all zero without -blob).
	reg.GaugeFunc("priu_blob_sessions",
		"Sessions with a certified copy in the shared blob tier.", func() int64 { return int64(stats().BlobSessions) })
	reg.GaugeFunc("priu_blob_bytes",
		"Bytes held in the shared blob tier.", func() int64 { return stats().BlobBytes })
	reg.CounterFunc("priu_blob_puts_total",
		"Completed blob uploads.", func() int64 { return stats().BlobPuts })
	reg.CounterFunc("priu_blob_gets_total",
		"Completed blob fetches.", func() int64 { return stats().BlobGets })
	reg.CounterFunc("priu_blob_deletes_total",
		"Completed blob deletes.", func() int64 { return stats().BlobDeletes })
	reg.CounterFunc("priu_blob_errors_total",
		"Failed blob operations.", func() int64 { return stats().BlobErrors })
	reg.CounterFunc("priu_blob_demotions_total",
		"Local spill files dropped in favor of their blob copies.", func() int64 { return stats().BlobDemotions })

	// par pool (process-global: the pool is shared across servers).
	reg.CounterFunc("priu_par_dispatches_total",
		"Helper closures accepted by the shared worker pool.", func() int64 { return par.Stats().Dispatches })
	reg.CounterFunc("priu_par_inline_total",
		"Helper shares run inline because the pool was saturated.", func() int64 { return par.Stats().Inline })

	// Cluster membership (all zero outside a fleet).
	reg.CounterFunc("priu_cluster_probes_total",
		"Peer liveness probes issued.", func() int64 {
			if s.cluster == nil {
				return 0
			}
			return s.cluster.Counters().Probes
		})
	reg.CounterFunc("priu_cluster_probe_failures_total",
		"Peer liveness probes that found the peer unreachable.", func() int64 {
			if s.cluster == nil {
				return 0
			}
			return s.cluster.Counters().ProbeFailures
		})
	reg.CounterFunc("priu_cluster_ring_changes_total",
		"Placement-ring rebuilds (alive-set transitions).", func() int64 {
			if s.cluster == nil {
				return 0
			}
			return s.cluster.Counters().RingChanges
		})
	reg.GaugeFunc("priu_cluster_alive",
		"Alive fleet members, as observed by this node.", func() int64 {
			if s.cluster == nil {
				return 0
			}
			return int64(len(s.cluster.Alive()))
		})
	reg.GaugeFunc("priu_cluster_ring_version",
		"Current placement-ring epoch.", func() int64 {
			if s.cluster == nil {
				return 0
			}
			return int64(s.cluster.Ring().Version())
		})
}

// cachedStats returns a store.Stats reader for the func-backed store metrics:
// the ~25 families of one /metrics scrape are read within microseconds of
// each other, so a short-lived snapshot turns a scrape into a single Stats()
// walk and keeps every family coherent (all from the same point in time).
// The JSON surfaces (/v1/stats, /healthz) call Stats() directly — they were
// already one call each.
func (s *Server) cachedStats() func() store.Stats {
	var (
		mu   sync.Mutex
		at   time.Time
		snap store.Stats
	)
	return func() store.Stats {
		mu.Lock()
		defer mu.Unlock()
		if at.IsZero() || time.Since(at) > 100*time.Millisecond {
			snap = s.st.Stats()
			at = time.Now()
		}
		return snap
	}
}

// tenantsWithData counts distinct named tenants with stored sessions — the
// one implementation behind the /healthz field and the priu_store_tenants
// gauge (previously computed by separate hand-rolled loops).
func tenantsWithData(st store.Stats) int {
	n := 0
	for name, ts := range st.Tenants {
		if name != "" && ts.Resident+ts.Spilled > 0 {
			n++
		}
	}
	return n
}

// routeLabel normalizes a request path to a bounded (generation, route) label
// pair: path parameters collapse to {id} so metric cardinality is fixed no
// matter how many sessions exist.
func routeLabel(r *http.Request) (gen, route string) {
	p := r.URL.Path
	switch {
	case p == "/healthz":
		return "health", "/healthz"
	case strings.HasPrefix(p, "/v1/model/"):
		return "v1", "/v1/model/{id}"
	case p == "/v1/train" || p == "/v1/delete" || p == "/v1/sessions" || p == "/v1/stats":
		return "v1", p
	case strings.HasPrefix(p, "/v1/"):
		return "v1", "other"
	case p == "/v2/sessions" || p == "/v2/meta" || p == "/v2/tenants/self/stats":
		return "v2", p
	case strings.HasPrefix(p, "/v2/sessions/"):
		rest := strings.TrimPrefix(p, "/v2/sessions/")
		if _, sub, ok := strings.Cut(rest, "/"); ok {
			switch sub {
			case "snapshot", "deletions", "whatif":
				return "v2", "/v2/sessions/{id}/" + sub
			}
			return "v2", "other"
		}
		return "v2", "/v2/sessions/{id}"
	case strings.HasPrefix(p, "/v2/"):
		return "v2", "other"
	}
	return "other", "other"
}

// obsWriter captures the response status for the request counter. Unwrap
// keeps http.NewResponseController working through the wrapper (the NDJSON
// streams need Flush and full-duplex).
type obsWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *obsWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *obsWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *obsWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withObs is the outermost middleware: it adopts (or mints) the request's
// trace ID, opens the root span, and records latency and status. The trace
// ID is written back onto r.Header so everything downstream that re-issues
// the request — the fleet reverse proxy, deleteAtOwner — forwards it for free, and
// onto the response so clients (and the SDK's *APIError) can quote it.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gen, route := routeLabel(r)
		id := r.Header.Get(obs.TraceHeader)
		if !obs.ValidTraceID(id) {
			id = obs.NewTraceID()
		}
		r.Header.Set(obs.TraceHeader, id)
		w.Header().Set(obs.TraceHeader, id)
		ctx, root := s.tracer.StartRoot(r.Context(), id, r.Method+" "+route)
		ow := &obsWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(ow, r.WithContext(ctx))
		root.End()
		s.httpSeconds.With(gen, route).Observe(time.Since(start).Seconds())
		s.httpReqs.With(gen, route, strconv.Itoa(ow.status)).Inc()
	})
}
