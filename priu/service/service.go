// Package service exposes PrIU as a versioned HTTP deletion service: a
// data-cleaning pipeline (the integration point the paper's introduction
// describes) trains and registers models, then issues deletion requests and
// receives updated parameters without retraining. Sessions hold a
// priu.Updater — the service never touches concrete engine types, so any
// registered family (including externally registered ones) is servable.
//
// Session storage lives behind the priu/store.Store interface: the default
// is the hash-sharded in-memory LRU tier, and cmd/priuserve wires in the
// tiered store (-store-dir) that spills evicted sessions to disk as priu
// session snapshots, lazily restores them on the next touch, and snapshots
// dirty sessions on shutdown — so an LRU budget is a cache boundary and a
// restart loses nothing. The handlers only ever Get/Put/Delete sessions; a
// mutator that finds its session copy was evicted mid-flight re-fetches,
// which transparently restores the session (deletion log replayed) from the
// spill directory.
//
// Two API generations are mounted side by side:
//
//	v1 (deprecated: every response carries Deprecation/Sunset headers and a
//	successor-version link to /v2/meta; wire formats unchanged until sunset)
//	  POST /v1/train     register data + hyperparameters, train with capture
//	  POST /v1/delete    incrementally remove samples (single session or batch)
//	  GET  /v1/model/ID  fetch a session's current parameters
//	  GET  /v1/sessions  list sessions (?limit=&cursor= opts into pagination)
//	  GET  /v1/stats     per-shard, per-session and per-tier counters
//
//	v2 (REST routing, typed {"error":{"code","message"}} envelopes, snapshots,
//	CSR uploads, streaming deletions, what-if previews — see v2.go, whatif.go)
//	  POST   /v2/sessions                train (dense or CSR), or restore a snapshot
//	  GET    /v2/sessions                paginated listing ({"sessions","next_cursor"})
//	  GET    /v2/sessions/{id}           session metadata + parameters
//	  DELETE /v2/sessions/{id}           drop a session (and its spill file)
//	  GET    /v2/sessions/{id}/snapshot  stream a self-contained snapshot
//	  POST   /v2/sessions/{id}/deletions NDJSON stream of removal batches
//	  POST   /v2/sessions/{id}/whatif    evaluate candidate deletion sets without committing
//	  GET    /v2/tenants/self/stats      the calling tenant's counters
//	  GET    /v2/meta                    version, enabled features, limits
//
//	GET /healthz           load-balancer probe (version, uptime, tiers)
//
// Both generations are tenant-aware (see auth.go): WithAuth installs an
// API-key middleware that resolves "Authorization: Bearer" keys to tenants.
// A tenant's sessions live in its own store namespace, its session/byte
// quota is enforced at registration (typed 429), and its deletion streams
// are rate-limited by a token bucket over removed rows. Unauthenticated
// callers (AuthOff, or AuthOptional without a key) are the anonymous tenant,
// whose wire behavior is exactly the pre-tenant service.
//
// # Distributed operation
//
// WithCluster (see fleet.go) turns one server into a fleet member. Placement
// is a pure function of the alive member set: priu/cluster rendezvous-hashes
// session storage IDs, so every node computes the same owner with no
// coordination, and the fleet middleware routes accordingly — non-owner
// nodes answer session reads with a 307 to the owner, transparently proxy
// the streaming routes (deletions, what-if) so clients keep one connection,
// and scatter-gather v1 batch deletes across owners. A forwarded request
// carries a hop header so routing can never loop. Session creation is always
// local: IDs are minted with a per-node suffix until one rendezvous-hashes
// to the creating node, so a new session's home is the node that trained it.
//
// Durability under node loss belongs to the store, not the routing layer:
// replicas share a blob tier (store.WithBlobStore), every spill is certified
// into it write-behind, and a membership change triggers peer handoff — the
// nodes that lost ownership push those sessions to the blob tier and forget
// them locally (store.Tiered.ReleaseUnowned), and the new owner lazily
// restores on first touch, deletion log replayed, bitwise-identical. When a
// peer is unreachable the proxy answers a typed 502 peer_unavailable and
// demotes it immediately; liveness probes re-admit it later. When the
// resident tier is pinned full, registration answers a typed 503
// resident_pressure with a Retry-After header rather than queueing.
// GET /v2/meta advertises features.fleet/features.blob and a cluster block
// (node, peers, alive set, ring version) so clients can discover the
// topology.
//
// # Observability
//
// Every server carries a priu/obs metrics registry and tracer (obs.go;
// WithObservability shares them with the embedding process). The registry is
// the single source of truth for the service's counters — /v1/stats,
// /healthz and /v2/tenants/self/stats read the same cells the Prometheus
// scrape does — and AdminHandler serves the operator surface: GET /metrics
// (text exposition), GET /v2/debug/traces[/{id}] (recent per-request span
// trees) and /debug/pprof. The admin handler is deliberately
// unauthenticated and must only be mounted on an operator-only listener
// (cmd/priuserve -admin-addr), never the tenant port. Requests run under an
// X-Priu-Trace ID minted at ingress (or adopted from the client), propagated
// across fleet redirects and proxied streams, and echoed on the response;
// traces exceeding the tracer's slow-op threshold are logged with their
// hottest span.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/priu"
	"repro/priu/cluster"
	"repro/priu/obs"
	"repro/priu/store"
)

// Session aliases the store's session record: the service adds wire formats
// and request accounting on top, storage placement belongs to priu/store.
type Session = store.Session

// numShards mirrors the store's shard count for the /v1/stats layout.
const numShards = store.NumShards

// defaultMaxRemovalsPerBatch bounds one v2 deletion batch; oversize batches
// are rejected with a typed error instead of stalling the update pool.
const defaultMaxRemovalsPerBatch = 1 << 20

// reqCounters are one shard's HTTP request counters (the store owns session
// placement and eviction counters; the service owns request accounting).
// The cells are registry counters — same atomic increment, and /metrics reads
// the identical values /v1/stats reports.
type reqCounters struct {
	trains       *obs.Counter
	deletes      *obs.Counter
	deleteErrors *obs.Counter
}

// tenantCounters are one tenant's HTTP request counters (storage placement
// counters live in the store; these are request-side). Pre-resolved children
// of the per-tenant registry families (see tenantVecs in obs.go).
type tenantCounters struct {
	trains          *obs.Counter
	deletes         *obs.Counter
	deleteErrors    *obs.Counter
	rowsDeleted     *obs.Counter
	rateLimited     *obs.Counter
	quotaRejections *obs.Counter
	// What-if plane: completed streams, evaluated sets, in-flight streams
	// (the concurrency-limit gauge) and limit rejections.
	whatifs       *obs.Counter
	whatifSets    *obs.Counter
	whatifActive  *obs.Gauge
	whatifLimited *obs.Counter
}

// Server is the HTTP deletion service. The zero value is not usable; call
// NewServer.
type Server struct {
	st     store.Store
	reqs   [numShards]reqCounters
	nextID atomic.Int64
	start  time.Time

	// Auth: mode plus the key→tenant resolver (nil keyring = no keys known).
	authMode AuthMode
	keyring  *Keyring
	// tenantReqs maps tenant name → *tenantCounters.
	tenantReqs sync.Map

	// Budgets used when no explicit store is injected (and echoed by
	// /healthz).
	maxSessions int
	maxBytes    int64

	// maxRemovals bounds one v2 deletion batch.
	maxRemovals int

	// What-if plane (see whatif.go): per-batch evaluation fan-out, the
	// per-tenant concurrent-stream cap, and the service-wide gauges.
	whatifWorkers   int
	whatifLimit     int
	whatifs         *obs.Counter
	whatifSets      *obs.Counter
	whatifCacheHits *obs.Counter

	// Fleet (see fleet.go): replica membership, this node's session-ID
	// suffix, routing counters and the one-at-a-time handoff latch.
	cluster        *cluster.Membership
	nodeSuffix     string
	fleetRedirects *obs.Counter
	fleetProxied   *obs.Counter
	fleetHandoffs  *obs.Counter
	fleetReleased  *obs.Counter
	handoffActive  atomic.Bool
	handoffRerun   atomic.Bool

	// Observability (see obs.go): the metrics registry, the request tracer,
	// the per-tenant metric families and the pre-resolved service handles.
	obsReg            *obs.Registry
	tracer            *obs.Tracer
	tenantVecs        tenantVecs
	httpReqs          *obs.CounterVec
	httpSeconds       *obs.HistogramVec
	captureSeconds    *obs.Histogram
	updateSeconds     *obs.Histogram
	deletionRows      *obs.Counter
	streamSeconds     *obs.Histogram
	snapshotSeconds   *obs.Histogram
	whatifPlanSeconds *obs.Histogram
	whatifEvalSeconds *obs.Histogram
}

// tc returns (creating if needed) a tenant's request counters.
func (s *Server) tc(name string) *tenantCounters {
	if v, ok := s.tenantReqs.Load(name); ok {
		return v.(*tenantCounters)
	}
	v, _ := s.tenantReqs.LoadOrStore(name, s.newTenantCounters(name))
	return v.(*tenantCounters)
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithMaxSessions bounds the number of resident sessions; the least recently
// used session is evicted when a registration exceeds the budget (0 =
// unbounded). Ignored when WithStore injects a pre-built store.
func WithMaxSessions(n int) ServerOption { return func(s *Server) { s.maxSessions = n } }

// WithMaxBytes bounds resident session memory (training data + provenance,
// as charged by priu.Updater.FootprintBytes); least recently used sessions
// are evicted when a registration exceeds the budget (0 = unbounded).
// Ignored when WithStore injects a pre-built store.
func WithMaxBytes(b int64) ServerOption { return func(s *Server) { s.maxBytes = b } }

// WithMaxRemovalsPerBatch bounds the size of one v2 deletion batch.
func WithMaxRemovalsPerBatch(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxRemovals = n
		}
	}
}

// WithStore serves sessions from a pre-built store (e.g. store.NewTiered for
// the spill-to-disk tier). Without it, NewServer builds an in-memory store
// from the WithMaxSessions/WithMaxBytes budgets. An injected store should be
// built with store.WithTenantLimits(keyring.Limits) when WithAuth is used,
// so tenant quotas are enforced atomically at registration.
func WithStore(st store.Store) ServerOption { return func(s *Server) { s.st = st } }

// WithAuth installs API-key authentication: keys resolve to tenants through
// the keyring (nil = no keys known, which with AuthRequired rejects
// everything but /healthz). See AuthMode for the modes.
func WithAuth(mode AuthMode, k *Keyring) ServerOption {
	return func(s *Server) {
		s.authMode = mode
		s.keyring = k
	}
}

// NewServer returns a deletion service. With an injected tiered store the
// server picks up every session a previous process spilled: IDs continue
// after the highest one found, and cold sessions restore on first touch.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{start: time.Now(), maxRemovals: defaultMaxRemovalsPerBatch, whatifLimit: defaultWhatIfLimit}
	for _, opt := range opts {
		opt(s)
	}
	if s.st == nil {
		memOpts := []store.MemoryOption{store.WithMaxSessions(s.maxSessions), store.WithMaxBytes(s.maxBytes)}
		if s.keyring != nil {
			memOpts = append(memOpts, store.WithTenantLimits(s.keyring.Limits))
		}
		s.st = store.NewMemory(memOpts...)
	}
	s.initObs()
	s.seedNextID()
	if s.cluster != nil {
		s.nodeSuffix = nodeSuffix(s.cluster.Self())
		s.cluster.SetOnChange(func(*cluster.Ring) { s.handoff() })
	}
	return s
}

// Store returns the session store the server was built on (the shutdown path
// closes it to drain dirty sessions).
func (s *Server) Store() store.Store { return s.st }

// seedNextID advances the ID counter past every session already in the store
// (resident or spilled), so a restarted server never reissues an ID. The
// counter is global across tenants; a session's storage ID is the wire ID
// prefixed with its tenant's namespace.
func (s *Server) seedNextID() {
	max := int64(0)
	scan := func(id string) {
		var n int64
		if _, err := fmt.Sscanf(store.LocalID(id), "sess-%d", &n); err == nil && n > max {
			max = n
		}
	}
	s.st.Range(func(sess *Session) bool {
		scan(sess.ID)
		return true
	})
	for _, sp := range s.st.Stats().SpilledSessions {
		scan(sp.ID)
	}
	s.nextID.Store(max)
}

// sessionIDLess orders generated "sess-N" IDs numerically (shorter numeric
// suffix first) so listings don't interleave sess-10 between sess-1 and
// sess-2 once the store passes nine sessions.
func sessionIDLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// validWireID rejects empty IDs and IDs that could escape the caller's
// tenant namespace (a "/" in a client-supplied ID would address another
// tenant's storage key).
func validWireID(id string) bool { return id != "" && !strings.Contains(id, "/") }

// TrainRequest registers a training job. Features is row-major n×m.
type TrainRequest struct {
	Kind       string      `json:"kind"` // linear | logistic | multinomial
	Features   [][]float64 `json:"features"`
	Labels     []float64   `json:"labels"`
	Classes    int         `json:"classes,omitempty"`
	Eta        float64     `json:"eta"`
	Lambda     float64     `json:"lambda"`
	BatchSize  int         `json:"batch_size"`
	Iterations int         `json:"iterations"`
	Seed       int64       `json:"seed"`
}

// TrainResponse reports the new session.
type TrainResponse struct {
	SessionID      string    `json:"session_id"`
	Parameters     []float64 `json:"parameters"`
	ProvenanceMB   float64   `json:"provenance_mb"`
	CaptureSeconds float64   `json:"capture_seconds"`
}

// DeleteItem is one session's removal set within a batched delete.
type DeleteItem struct {
	SessionID string `json:"session_id"`
	Removed   []int  `json:"removed"`
}

// DeleteRequest removes training samples. Either the single-session fields
// (SessionID + Removed) or Batch must be set, not both. Batch items for
// different sessions execute concurrently.
type DeleteRequest struct {
	SessionID string       `json:"session_id,omitempty"`
	Removed   []int        `json:"removed,omitempty"`
	Batch     []DeleteItem `json:"batch,omitempty"`
}

// DeleteResponse reports the incrementally updated model.
type DeleteResponse struct {
	SessionID     string    `json:"session_id"`
	Parameters    []float64 `json:"parameters"`
	UpdateSeconds float64   `json:"update_seconds"`
	TotalDeleted  int       `json:"total_deleted"`
	CosineVsPrev  float64   `json:"cosine_vs_previous"`
}

// BatchDeleteResult is one item's outcome within a batched delete: either the
// update result or the item's error.
type BatchDeleteResult struct {
	SessionID string          `json:"session_id"`
	Error     string          `json:"error,omitempty"`
	Result    *DeleteResponse `json:"result,omitempty"`
}

// BatchDeleteResponse reports all outcomes of a batched delete, in request
// order. Per-item failures do not fail the batch.
type BatchDeleteResponse struct {
	Results []BatchDeleteResult `json:"results"`
}

// ModelResponse reports a session's current model.
type ModelResponse struct {
	SessionID    string    `json:"session_id"`
	Kind         string    `json:"kind"`
	Parameters   []float64 `json:"parameters"`
	TotalDeleted int       `json:"total_deleted"`
}

// SessionStats is one session's counters within /v1/stats.
type SessionStats struct {
	SessionID         string    `json:"session_id"`
	Kind              string    `json:"kind"`
	CreatedAt         time.Time `json:"created_at"`
	Updates           int64     `json:"updates"`
	TotalDeleted      int       `json:"total_deleted"`
	LastUpdateSeconds float64   `json:"last_update_seconds"`
}

// ShardStats is one shard's counters within /v1/stats. Evictions counts only
// budget (LRU) evictions; explicit DELETEs are reported separately.
type ShardStats struct {
	Shard           int            `json:"shard"`
	Sessions        int            `json:"sessions"`
	Trains          int64          `json:"trains"`
	Deletes         int64          `json:"deletes"`
	DeleteErrors    int64          `json:"delete_errors"`
	Evictions       int64          `json:"evictions"`
	ExplicitDeletes int64          `json:"explicit_deletes"`
	SessionStats    []SessionStats `json:"session_stats,omitempty"`
}

// StatsResponse is the /v1/stats payload. Sessions/ResidentBytes describe the
// in-memory tier; Spilled/SpilledBytes/Spills/Restores describe the disk tier
// (zero without -store-dir).
type StatsResponse struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	Workers         int     `json:"workers"`
	Sessions        int     `json:"sessions"`
	Trains          int64   `json:"trains"`
	Deletes         int64   `json:"deletes"`
	DeleteErrors    int64   `json:"delete_errors"`
	Evictions       int64   `json:"evictions"`
	ExplicitDeletes int64   `json:"explicit_deletes"`
	ResidentBytes   int64   `json:"resident_bytes"`
	Spilled         int     `json:"spilled"`
	SpilledBytes    int64   `json:"spilled_bytes"`
	Spills          int64   `json:"spills"`
	Restores        int64   `json:"restores"`
	SpillDirBytes   int64   `json:"spill_dir_bytes,omitempty"`
	SpillMaxBytes   int64   `json:"spill_max_bytes,omitempty"`
	// Lifecycle-manager counters: write-behind spills (subset of Spills
	// performed off the request path), the queue's current backlog and its
	// backpressure drops, disk-budget file evictions that dropped cold
	// sessions, and age-based GC removals of orphaned files.
	WriteBehindSpills int64 `json:"write_behind_spills,omitempty"`
	SpillQueueDepth   int   `json:"spill_queue_depth,omitempty"`
	SpillQueueFull    int64 `json:"spill_queue_full,omitempty"`
	DiskEvictions     int64 `json:"disk_evictions,omitempty"`
	GCRemovals        int64 `json:"gc_removals,omitempty"`
	// Log-structured tier counters: spills that wrote an O(batch) delta
	// segment (subset of Spills), chain folds into a new base, delta
	// segments currently on disk, publishes discarded because a newer cut
	// won the chain race, and deletion tombstones awaiting their blob or
	// local-file removal.
	DeltaSpills       int64 `json:"delta_spills,omitempty"`
	Compactions       int64 `json:"compactions,omitempty"`
	DeltaSegments     int   `json:"delta_segments,omitempty"`
	StaleSpills       int64 `json:"stale_spills,omitempty"`
	PendingTombstones int   `json:"pending_tombstones,omitempty"`
	// What-if plane gauges: streams served, candidate sets evaluated, and
	// prefix-tree cache hits (shared-prefix rows the planners did not
	// re-apply).
	WhatIfs         int64 `json:"whatifs,omitempty"`
	WhatIfSets      int64 `json:"whatif_sets,omitempty"`
	WhatIfCacheHits int64 `json:"whatif_cache_hits,omitempty"`
	// Blob tier (zero without -blob): sessions with a certified copy in the
	// shared tier and their bytes there, plus the operation/error counters
	// and cache demotions (local spill files dropped because the blob copy
	// makes them redundant).
	BlobSessions  int   `json:"blob_sessions,omitempty"`
	BlobBytes     int64 `json:"blob_bytes,omitempty"`
	BlobPuts      int64 `json:"blob_puts,omitempty"`
	BlobGets      int64 `json:"blob_gets,omitempty"`
	BlobDeletes   int64 `json:"blob_deletes,omitempty"`
	BlobErrors    int64 `json:"blob_errors,omitempty"`
	BlobDemotions int64 `json:"blob_demotions,omitempty"`
	// Fleet (zero without -peers): this node's advertised URL, the current
	// placement-ring epoch and alive members, and the routing/handoff
	// counters.
	Node           string   `json:"node,omitempty"`
	RingVersion    uint64   `json:"ring_version,omitempty"`
	FleetAlive     []string `json:"fleet_alive,omitempty"`
	FleetRedirects int64    `json:"fleet_redirects,omitempty"`
	FleetProxied   int64    `json:"fleet_proxied,omitempty"`
	FleetHandoffs  int64    `json:"fleet_handoffs,omitempty"`
	FleetReleased  int64    `json:"fleet_released,omitempty"`

	Shards []ShardStats `json:"shards"`
}

// HealthResponse is the /healthz payload for load-balancer probes.
type HealthResponse struct {
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	Shards        int     `json:"shards"`
	Sessions      int     `json:"sessions"`
	ResidentBytes int64   `json:"resident_bytes"`
	MaxSessions   int     `json:"max_sessions,omitempty"`
	MaxBytes      int64   `json:"max_bytes,omitempty"`
	Spilled       int     `json:"spilled,omitempty"`
	SpilledBytes  int64   `json:"spilled_bytes,omitempty"`
	Restores      int64   `json:"restores,omitempty"`
	// SpillDirBytes is the on-disk size of the spill directory (indexed
	// files plus scanned orphans) — the disk-growth gauge, maintained
	// incrementally by the lifecycle manager rather than walked per probe.
	SpillDirBytes int64 `json:"spill_dir_bytes,omitempty"`
	// SpillMaxBytes echoes the -spill-max-bytes disk budget (0 = unbounded).
	SpillMaxBytes int64 `json:"spill_max_bytes,omitempty"`
	// SpillQueueDepth is the write-behind queue's current backlog;
	// DiskEvictions counts cold sessions dropped by the disk budget.
	SpillQueueDepth int   `json:"spill_queue_depth,omitempty"`
	DiskEvictions   int64 `json:"disk_evictions,omitempty"`
	// Tenants counts distinct tenants with stored sessions.
	Tenants int `json:"tenants,omitempty"`
	// Blob tier (when -blob is set): sessions certified into the shared
	// tier and their bytes there.
	BlobSessions int   `json:"blob_sessions,omitempty"`
	BlobBytes    int64 `json:"blob_bytes,omitempty"`
	// Fleet (when -peers is set): this node's advertised URL, the number of
	// alive members and the placement-ring epoch — enough for a probe to
	// tell a healthy fleet from a split one.
	Node        string `json:"node,omitempty"`
	FleetAlive  int    `json:"fleet_alive,omitempty"`
	RingVersion uint64 `json:"ring_version,omitempty"`
}

// Handler returns the service's HTTP routes — the v1 surface (deprecated;
// every response carries Deprecation/Sunset headers pointing at /v2/meta),
// the v2 REST surface and the health probe — wrapped in the
// tenant-resolution middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/train", deprecateV1(s.handleTrain))
	mux.HandleFunc("/v1/delete", deprecateV1(s.handleDelete))
	mux.HandleFunc("/v1/model/", deprecateV1(s.handleModel))
	mux.HandleFunc("/v1/sessions", deprecateV1(s.handleSessions))
	mux.HandleFunc("/v1/stats", deprecateV1(s.handleStats))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mountV2(mux)
	// Middleware order, outside in: observability first (every request gets a
	// trace ID and a latency sample, even rejected ones), then auth (fleet
	// routing needs the resolved tenant to compute storage IDs), then
	// ownership routing (a request for a session owned elsewhere must not
	// touch the local store).
	return s.withObs(s.withAuth(s.withFleet(mux)))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req TrainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	d, err := datasetFromRequest(req.Kind, req.Features, req.Labels, req.Classes)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg := priu.Config{
		Eta: req.Eta, Lambda: req.Lambda,
		BatchSize: req.BatchSize, Iterations: req.Iterations, Seed: req.Seed,
	}
	ten := tenantFor(r)
	if qe := s.admitSession(ten); qe != nil {
		s.tc(ten.Name).quotaRejections.Add(1)
		status, _ := quotaHTTP(qe)
		writeError(w, status, "%v", qe)
		return
	}
	start := time.Now()
	_, span := obs.StartSpan(r.Context(), "capture")
	upd, err := priu.TrainConfig(req.Kind, d, cfg)
	span.End()
	s.captureSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess, err := s.addSession(ten, req.Kind, d, upd, nil, nil)
	if err != nil {
		// The store's atomic check caught a rejection that raced past the
		// admission pre-check (quota), or the resident tier is pinned solid
		// (transient pressure, 503 + Retry-After).
		s.failRegistration(w, ten, err)
		return
	}
	// Put published the session; IDs are guessable, so a concurrent delete
	// could already be mutating it — read the model under its lock.
	sess.Mu.Lock()
	params := sess.Model.Vec()
	sess.Mu.Unlock()
	writeJSON(w, TrainResponse{
		SessionID:      store.LocalID(sess.ID),
		Parameters:     params,
		ProvenanceMB:   float64(upd.FootprintBytes()) / (1 << 20),
		CaptureSeconds: time.Since(start).Seconds(),
	})
}

// admitSession is the cheap pre-training quota check: it rejects before the
// expensive capture when the tenant is already at its session quota (or over
// its byte or spill-byte quota). The authoritative, race-free check is the
// store's at Put.
func (s *Server) admitSession(ten *Tenant) *store.QuotaError {
	if ten.MaxSessions <= 0 && ten.MaxBytes <= 0 && ten.MaxSpillBytes <= 0 {
		return nil
	}
	u := s.st.TenantUsage(ten.Name)
	if ten.MaxSessions > 0 && u.Sessions()+1 > ten.MaxSessions {
		return &store.QuotaError{
			Tenant: ten.Name, Dimension: "sessions",
			Used: int64(u.Sessions() + 1), Limit: int64(ten.MaxSessions),
		}
	}
	if ten.MaxBytes > 0 && u.Bytes() >= ten.MaxBytes {
		return &store.QuotaError{
			Tenant: ten.Name, Dimension: "bytes",
			Used: u.Bytes(), Limit: ten.MaxBytes,
		}
	}
	if ten.MaxSpillBytes > 0 && u.SpillFileBytes >= ten.MaxSpillBytes {
		return &store.QuotaError{
			Tenant: ten.Name, Dimension: store.DimensionSpillBytes,
			Used: u.SpillFileBytes, Limit: ten.MaxSpillBytes,
		}
	}
	return nil
}

// quotaHTTP maps a quota rejection to its HTTP status and v2 error code: the
// spill-byte cap is a disk condition (507 spill_quota), every other
// dimension a 429 insufficient_quota.
func quotaHTTP(err error) (int, string) {
	var qe *store.QuotaError
	if errors.As(err, &qe) && qe.Dimension == store.DimensionSpillBytes {
		return http.StatusInsufficientStorage, ErrCodeSpillQuota
	}
	return http.StatusTooManyRequests, ErrCodeQuota
}

// registrationHTTP maps a failed store registration to its HTTP status, v2
// error code, and Retry-After seconds (0 = no header). Resident pressure —
// budget exhausted with every evictable session pinned — is transient
// backpressure (503 + Retry-After), not a quota violation: the caller should
// retry once an export or what-if stream releases its pin.
func registrationHTTP(err error) (status int, code string, retryAfter int) {
	var pe *store.PressureError
	if errors.As(err, &pe) {
		return http.StatusServiceUnavailable, ErrCodeResidentPressure, 1
	}
	status, code = quotaHTTP(err)
	return status, code, 0
}

// failRegistration reports an addSession error in the v1 wire shape.
func (s *Server) failRegistration(w http.ResponseWriter, ten *Tenant, err error) {
	status, _, retry := registrationHTTP(err)
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retry))
	} else {
		s.tc(ten.Name).quotaRejections.Add(1)
	}
	writeError(w, status, "%v", err)
}

// failRegistrationV2 reports an addSession error as a typed v2 envelope.
func (s *Server) failRegistrationV2(w http.ResponseWriter, ten *Tenant, err error) {
	status, code, retry := registrationHTTP(err)
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retry))
	} else {
		s.tc(ten.Name).quotaRejections.Add(1)
	}
	writeV2Error(w, status, code, "%v", err)
}

// addSession registers an updater under a fresh session ID in the tenant's
// namespace; the store enforces the tenant quota atomically and its eviction
// budget. A non-empty deleted log (snapshot restore) comes with the model
// that already reflects it.
func (s *Server) addSession(ten *Tenant, kind string, ds priu.TrainingSet, upd priu.Updater, deleted []int, model *priu.Model) (*Session, error) {
	id := s.newSessionID(ten)
	sess := store.NewSession(id, kind, ds, upd, model, deleted)
	if err := s.st.Put(sess); err != nil {
		return nil, err
	}
	s.reqs[store.ShardIndex(id)].trains.Add(1)
	s.tc(ten.Name).trains.Add(1)
	return sess, nil
}

// datasetFromRequest builds the dense dataset for a JSON training request.
// The family name decides the task; sparse families use the v2 CSR shape.
func datasetFromRequest(family string, features [][]float64, labels []float64, classes int) (*dataset.Dataset, error) {
	n := len(features)
	if n == 0 {
		return nil, fmt.Errorf("empty feature matrix")
	}
	m := len(features[0])
	if m == 0 {
		return nil, fmt.Errorf("zero-width feature matrix")
	}
	if len(labels) != n {
		return nil, fmt.Errorf("%d labels for %d rows", len(labels), n)
	}
	x := make([]float64, 0, n*m)
	for i, row := range features {
		if len(row) != m {
			return nil, fmt.Errorf("row %d has %d features, want %d", i, len(row), m)
		}
		x = append(x, row...)
	}
	task, err := taskForFamily(family)
	if err != nil {
		return nil, err
	}
	switch task {
	case dataset.Regression:
		classes = 0
	case dataset.BinaryClassification:
		classes = 2
	}
	d := &dataset.Dataset{
		Name:    "api",
		Task:    task,
		Classes: classes,
		X:       mat.NewDenseData(n, m, x),
		Y:       labels,
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// taskForFamily resolves a family's label task from the priu registry, so
// externally registered families are servable without service changes.
func taskForFamily(family string) (dataset.Task, error) {
	f, ok := priu.Lookup(family)
	if !ok {
		return 0, fmt.Errorf("unknown kind %q", family)
	}
	if f.Sparse {
		return 0, fmt.Errorf("family %q trains on sparse input; POST /v2/sessions with a CSR body or restore a snapshot", family)
	}
	return f.Task, nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req DeleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.SessionID == "" && len(req.Removed) == 0 && len(req.Batch) == 0 {
		writeError(w, http.StatusBadRequest, "empty delete request: set session_id/removed or batch")
		return
	}
	ten := tenantFor(r)
	if len(req.Batch) > 0 {
		if req.SessionID != "" || len(req.Removed) > 0 {
			writeError(w, http.StatusBadRequest, "set either session_id/removed or batch, not both")
			return
		}
		s.handleBatchDelete(w, r, ten, req.Batch)
		return
	}
	resp, status, err := s.deleteOne(r.Context(), ten, req.SessionID, req.Removed)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, resp)
}

// handleBatchDelete executes the items concurrently on the shared worker
// pool. Items targeting the same session serialize on that session's mutex;
// everything else proceeds independently. Results keep request order.
func (s *Server) handleBatchDelete(w http.ResponseWriter, r *http.Request, ten *Tenant, batch []DeleteItem) {
	results := make([]BatchDeleteResult, len(batch))
	ctx := r.Context()
	par.For(len(batch), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			item := batch[i]
			results[i].SessionID = item.SessionID
			resp, _, err := s.deleteOne(ctx, ten, item.SessionID, item.Removed)
			if err != nil {
				results[i].Error = err.Error()
				continue
			}
			results[i].Result = &resp
		}
	})
	writeJSON(w, BatchDeleteResponse{Results: results})
}

// deleteOne applies one session's cumulative deletion and returns the
// response, or the HTTP status to report and the error. The wire session ID
// is resolved inside the caller's tenant namespace. If the session copy it
// fetched was evicted before the lock was won, it re-fetches — which, on a
// tiered store, restores the session from its spill file (deletion log
// replayed) — so an eviction mid-request never loses an honored deletion.
func (s *Server) deleteOne(ctx context.Context, ten *Tenant, sessionID string, removed []int) (DeleteResponse, int, error) {
	storeID := ten.storeID(sessionID)
	rq := &s.reqs[store.ShardIndex(storeID)]
	tq := s.tc(ten.Name)
	rq.deletes.Add(1)
	tq.deletes.Add(1)
	if !validWireID(sessionID) {
		rq.deleteErrors.Add(1)
		tq.deleteErrors.Add(1)
		return DeleteResponse{}, http.StatusNotFound, fmt.Errorf("unknown session %q", sessionID)
	}
	for {
		sess, ok := s.st.Get(storeID)
		if !ok {
			rq.deleteErrors.Add(1)
			tq.deleteErrors.Add(1)
			return DeleteResponse{}, http.StatusNotFound, fmt.Errorf("unknown session %q", sessionID)
		}
		if len(removed) == 0 {
			rq.deleteErrors.Add(1)
			tq.deleteErrors.Add(1)
			return DeleteResponse{}, http.StatusBadRequest, fmt.Errorf("empty removal set")
		}
		resp, err, retry := func() (DeleteResponse, error, bool) {
			sess.Mu.Lock()
			defer sess.Mu.Unlock()
			if sess.GoneLocked() {
				return DeleteResponse{}, nil, true
			}
			r, e := s.applyDeletionLocked(ctx, sess, removed, v1Fold(sess, removed))
			return r, e, false
		}()
		if retry {
			continue // evicted between Get and Lock; re-fetch (and restore)
		}
		if err != nil {
			rq.deleteErrors.Add(1)
			tq.deleteErrors.Add(1)
			status := http.StatusBadRequest
			if errors.Is(err, errInternal) {
				status = http.StatusInternalServerError
			}
			return DeleteResponse{}, status, err
		}
		tq.rowsDeleted.Add(int64(len(removed)))
		return resp, http.StatusOK, nil
	}
}

// errInternal marks server-side invariant failures (as opposed to invalid
// client input), which v1 reports as 500.
var errInternal = errors.New("internal error")

// v1Fold returns the part of a v1 batch the session's cursor folds. v1
// tolerates ids repeated within the batch or already in the log — they
// still join the log as sent and count toward total_deleted — so only each
// new id's first occurrence folds. Callers hold sess.Mu.
func v1Fold(sess *Session, removed []int) []int {
	logged := sess.LoggedLocked()
	n := sess.DS.N()
	fold := make([]int, 0, len(removed))
	for _, i := range removed {
		if i < 0 || i >= n {
			fold = append(fold, i) // the cursor's Apply rejects it
			continue
		}
		if !logged.Has(i) {
			logged.Add(i)
			fold = append(fold, i)
		}
	}
	for _, i := range fold {
		if i >= 0 && i < n {
			logged.Remove(i)
		}
	}
	return fold
}

// applyDeletionLocked appends removed to the session's cumulative removal
// log, folds fold (removed's ids new to the log; removed itself when the
// batch was validated distinct and new) through the session's live cursor
// and swaps in the new model. Callers hold sess.Mu and have checked
// GoneLocked.
func (s *Server) applyDeletionLocked(ctx context.Context, sess *Session, removed, fold []int) (DeleteResponse, error) {
	sess.Touch()
	start := time.Now()
	_, span := obs.StartSpan(ctx, "update")
	updated, err := sess.FoldLocked(fold)
	span.End()
	dt := time.Since(start)
	s.updateSeconds.Observe(dt.Seconds())
	if err != nil {
		return DeleteResponse{}, err
	}
	s.deletionRows.Add(int64(len(removed)))
	cmp, err := metrics.Compare(updated, sess.Model)
	if err != nil {
		// The updated model disagreeing in shape with the cached one is a
		// server-side invariant failure, not bad client input. The cursor
		// already holds the batch, which is not committed: drop it.
		sess.DropCursorLocked()
		return DeleteResponse{}, fmt.Errorf("%w: comparing models: %v", errInternal, err)
	}
	// Deletions are cumulative within a session. The log grows in place:
	// every reader copies it under Mu, and an append never rewrites the
	// prefix an earlier copy or slice holds.
	sess.Deleted = append(sess.Deleted, removed...)
	sess.Model = updated
	sess.Updates++
	sess.LastUpdateSeconds = dt.Seconds()
	sess.MarkDirtyLocked()
	return DeleteResponse{
		SessionID:     store.LocalID(sess.ID),
		Parameters:    updated.Vec(),
		UpdateSeconds: dt.Seconds(),
		TotalDeleted:  len(sess.Deleted),
		CosineVsPrev:  cmp.Cosine,
	}, nil
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/model/")
	ten := tenantFor(r)
	var (
		sess *Session
		ok   bool
	)
	if validWireID(id) {
		sess, ok = s.st.Get(ten.storeID(id))
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	sess.Mu.Lock()
	defer sess.Mu.Unlock()
	writeJSON(w, ModelResponse{
		SessionID:    store.LocalID(sess.ID),
		Kind:         sess.Kind,
		Parameters:   sess.Model.Vec(),
		TotalDeleted: len(sess.Deleted),
	})
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	ten := tenantFor(r)
	type row struct {
		ID        string    `json:"id"`
		Kind      string    `json:"kind"`
		CreatedAt time.Time `json:"created_at"`
		Spilled   bool      `json:"spilled,omitempty"`
	}
	p, err := parsePageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Listings are tenant-scoped (a caller sees only its own namespace) and
	// include spilled sessions, which are still servable: they restore on
	// touch.
	out := make([]row, 0)
	for _, si := range s.listSessions(ten) {
		out = append(out, row{ID: si.SessionID, Kind: si.Family, CreatedAt: si.CreatedAt, Spilled: si.Spilled})
	}
	if !p.paged {
		// The pre-pagination wire shape, unchanged for existing callers.
		writeJSON(w, out)
		return
	}
	lo, hi, next := pageWindow(len(out), func(i int) string { return out[i].ID }, p)
	writeJSON(w, struct {
		Sessions   []row  `json:"sessions"`
		NextCursor string `json:"next_cursor,omitempty"`
	}{Sessions: out[lo:hi], NextCursor: next})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	st := s.st.Stats()
	resp := StatsResponse{
		UptimeSeconds:     time.Since(s.start).Seconds(),
		Workers:           par.Workers(),
		Sessions:          st.Resident,
		Evictions:         st.BudgetEvictions,
		ExplicitDeletes:   st.ExplicitDeletes,
		ResidentBytes:     st.ResidentBytes,
		Spilled:           st.Spilled,
		SpilledBytes:      st.SpilledBytes,
		Spills:            st.Spills,
		Restores:          st.Restores,
		SpillDirBytes:     st.SpillDirBytes,
		SpillMaxBytes:     st.SpillMaxBytes,
		WriteBehindSpills: st.WriteBehindSpills,
		SpillQueueDepth:   st.SpillQueueDepth,
		SpillQueueFull:    st.SpillQueueFull,
		DiskEvictions:     st.DiskEvictions,
		GCRemovals:        st.GCRemovals,
		DeltaSpills:       st.DeltaSpills,
		Compactions:       st.Compactions,
		DeltaSegments:     st.DeltaSegments,
		StaleSpills:       st.StaleSpills,
		PendingTombstones: st.PendingTombstones,
		WhatIfs:           s.whatifs.Value(),
		WhatIfSets:        s.whatifSets.Value(),
		WhatIfCacheHits:   s.whatifCacheHits.Value(),
		BlobSessions:      st.BlobSessions,
		BlobBytes:         st.BlobBytes,
		BlobPuts:          st.BlobPuts,
		BlobGets:          st.BlobGets,
		BlobDeletes:       st.BlobDeletes,
		BlobErrors:        st.BlobErrors,
		BlobDemotions:     st.BlobDemotions,
	}
	if s.cluster != nil {
		ring := s.cluster.Ring()
		resp.Node = s.cluster.Self()
		resp.RingVersion = ring.Version()
		resp.FleetAlive = ring.Nodes()
		resp.FleetRedirects = s.fleetRedirects.Value()
		resp.FleetProxied = s.fleetProxied.Value()
		resp.FleetHandoffs = s.fleetHandoffs.Value()
		resp.FleetReleased = s.fleetReleased.Value()
	}
	ten := tenantFor(r)
	perShard := make([][]SessionStats, numShards)
	// Global counters are service-wide; the per-session rows are scoped to
	// the caller's tenant so one tenant cannot enumerate another's sessions.
	s.st.Range(func(sess *Session) bool {
		if store.TenantOf(sess.ID) != ten.Name {
			return true
		}
		sess.Mu.Lock()
		ss := SessionStats{
			SessionID:         store.LocalID(sess.ID),
			Kind:              sess.Kind,
			CreatedAt:         sess.CreatedAt,
			Updates:           sess.Updates,
			TotalDeleted:      len(sess.Deleted),
			LastUpdateSeconds: sess.LastUpdateSeconds,
		}
		sess.Mu.Unlock()
		i := store.ShardIndex(sess.ID)
		perShard[i] = append(perShard[i], ss)
		return true
	})
	for i := 0; i < numShards; i++ {
		rq := &s.reqs[i]
		ss := ShardStats{
			Shard:           i,
			Sessions:        st.Shards[i].Sessions,
			Trains:          rq.trains.Value(),
			Deletes:         rq.deletes.Value(),
			DeleteErrors:    rq.deleteErrors.Value(),
			Evictions:       st.Shards[i].BudgetEvictions,
			ExplicitDeletes: st.Shards[i].ExplicitDeletes,
			SessionStats:    perShard[i],
		}
		sort.Slice(ss.SessionStats, func(a, b int) bool {
			return sessionIDLess(ss.SessionStats[a].SessionID, ss.SessionStats[b].SessionID)
		})
		resp.Trains += ss.Trains
		resp.Deletes += ss.Deletes
		resp.DeleteErrors += ss.DeleteErrors
		resp.Shards = append(resp.Shards, ss)
	}
	writeJSON(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.st.Stats()
	resp := HealthResponse{
		Version:         priu.Version,
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Workers:         par.Workers(),
		Shards:          numShards,
		Sessions:        st.Resident,
		ResidentBytes:   st.ResidentBytes,
		MaxSessions:     s.maxSessions,
		MaxBytes:        s.maxBytes,
		Spilled:         st.Spilled,
		SpilledBytes:    st.SpilledBytes,
		Restores:        st.Restores,
		SpillDirBytes:   st.SpillDirBytes,
		SpillMaxBytes:   st.SpillMaxBytes,
		SpillQueueDepth: st.SpillQueueDepth,
		DiskEvictions:   st.DiskEvictions,
		Tenants:         tenantsWithData(st),
		BlobSessions:    st.BlobSessions,
		BlobBytes:       st.BlobBytes,
	}
	if s.cluster != nil {
		ring := s.cluster.Ring()
		resp.Node = s.cluster.Self()
		resp.FleetAlive = len(ring.Nodes())
		resp.RingVersion = ring.Version()
	}
	writeJSON(w, resp)
}
