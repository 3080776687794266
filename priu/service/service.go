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
// Two API generations are mounted side by side. Both run one core: a session
// is created by createSession and every deletion batch is applied by commit,
// which owns the tenant's row budget, the session lookup and lock, and the
// incremental update; failures are APIErrors that carry their HTTP status.
// v1 is a set of wire-format adapters over that core, all in v1.go.
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
// nodes answer session reads with a 307 to the owner and transparently proxy
// the streaming routes (deletions, what-if) so clients keep one connection.
// Deletes that name their sessions in the body are routed item by item: an
// item whose session another node owns runs there as a single-session
// delete. A forwarded request carries a hop header so routing can never
// loop. Session creation is always local: IDs are minted with a per-node
// suffix until one rendezvous-hashes to the creating node, so a new
// session's home is the node that trained it.
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
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// defaultMaxRemovalsPerBatch bounds one deletion batch; oversize batches
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

	// maxRemovals bounds one deletion batch.
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

// WithMaxRemovalsPerBatch bounds the size of one deletion batch (v1 and v2).
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
	// SpillQueueDepth is the write-behind backlog (dirty sessions not yet
	// spilled by the worker);
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

// Handler returns the service's HTTP routes — the deprecated v1 adapters,
// the v2 REST surface and the health probe — wrapped in the observability,
// tenant-resolution and fleet-routing middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.mountV1(mux)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mountV2(mux)
	// Middleware order, outside in: observability first (every request gets a
	// trace ID and a latency sample, even rejected ones), then auth (fleet
	// routing needs the resolved tenant to compute storage IDs), then
	// ownership routing (a request for a session owned elsewhere must not
	// touch the local store).
	return s.withObs(s.withAuth(s.withFleet(mux)))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
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

// registrationError maps a rejected admission or store registration to its
// APIError. Resident pressure — budget exhausted with every evictable session
// pinned — is transient backpressure (503 + Retry-After), not a quota
// violation: the caller should retry once an export or what-if stream
// releases its pin. A quota rejection counts against the tenant: the
// spill-byte cap is a disk condition (507 spill_quota), every other dimension
// a 429 insufficient_quota.
func (s *Server) registrationError(ten *Tenant, err error) *APIError {
	var pe *store.PressureError
	if errors.As(err, &pe) {
		e := apiErrorf(http.StatusServiceUnavailable, ErrCodeResidentPressure, "%v", err)
		e.retryAfter = 1
		return e
	}
	s.tc(ten.Name).quotaRejections.Add(1)
	var qe *store.QuotaError
	if errors.As(err, &qe) && qe.Dimension == store.DimensionSpillBytes {
		return apiErrorf(http.StatusInsufficientStorage, ErrCodeSpillQuota, "%v", err)
	}
	return apiErrorf(http.StatusTooManyRequests, ErrCodeQuota, "%v", err)
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

// commitResult is one committed deletion batch: the updated parameters, the
// update's wall time, the log length after it and the cosine against the
// model it replaced.
type commitResult struct {
	params        []float64
	updateSeconds float64
	totalDeleted  int
	cosine        float64
}

// commit is the one deletion path every API generation runs. It admits the
// batch against the per-batch cap and the tenant's deletion-row bucket,
// resolves the wire session ID inside the tenant's namespace and applies the
// batch under the session lock: prepare runs under sess.Mu and returns the ids
// the session's cursor folds, or the batch's rejection. If the session copy
// it fetched was evicted before the lock was won, it re-fetches — which, on a
// tiered store, restores the session from its spill chain (deletion log
// replayed) — so an eviction mid-request never loses an honored deletion.
func (s *Server) commit(ctx context.Context, ten *Tenant, wireID string, removed []int,
	prepare func(sess *Session, removed []int) ([]int, *APIError)) (commitResult, *APIError) {
	tq := s.tc(ten.Name)
	if e := s.admitRows(ten, len(removed)); e != nil {
		if e.Code == ErrCodeRateLimited {
			tq.rateLimited.Add(1)
		} else {
			tq.deleteErrors.Add(1)
		}
		return commitResult{}, e
	}
	storeID := ten.storeID(wireID)
	rq := &s.reqs[store.ShardIndex(storeID)]
	rq.deletes.Add(1)
	tq.deletes.Add(1)
	var (
		res   commitResult
		e     *APIError
		retry bool
	)
	for {
		var sess *Session
		ok := false
		if validWireID(wireID) {
			sess, ok = s.st.Get(storeID)
		}
		if !ok {
			e = apiErrorf(http.StatusNotFound, ErrCodeNotFound, "unknown session %q", wireID)
			break
		}
		// Validation and application happen under one lock acquisition so a
		// concurrent commit to the same session can't slip a duplicate
		// through between the check and the apply; the deferred unlock keeps
		// a panicking engine from wedging the session mutex.
		res, e, retry = func() (commitResult, *APIError, bool) {
			sess.Mu.Lock()
			defer sess.Mu.Unlock()
			if sess.GoneLocked() {
				return commitResult{}, nil, true // evicted between Get and Lock
			}
			fold, e := prepare(sess, removed)
			if e != nil {
				return commitResult{}, e, false
			}
			res, e := s.applyDeletionLocked(ctx, sess, removed, fold)
			return res, e, false
		}()
		if !retry {
			break
		}
	}
	if e != nil {
		rq.deleteErrors.Add(1)
		tq.deleteErrors.Add(1)
		return commitResult{}, e
	}
	tq.rowsDeleted.Add(int64(len(removed)))
	return res, nil
}

// admitRows admits one deletion batch of n rows. A batch over the server's
// per-batch cap, or over the tenant's rate-limit burst (which no wait could
// admit), is too large; otherwise the rows are charged to the tenant's token
// bucket, and a throttled batch charges nothing and says when to retry. The
// charge precedes validation, so a tenant cannot probe for free.
func (s *Server) admitRows(ten *Tenant, n int) *APIError {
	if n > s.maxRemovals {
		return apiErrorf(http.StatusBadRequest, ErrCodeBatchTooLarge,
			"batch of %d removals exceeds the limit of %d", n, s.maxRemovals)
	}
	if burst := ten.Capacity(); burst > 0 && float64(n) > burst {
		return apiErrorf(http.StatusBadRequest, ErrCodeBatchTooLarge,
			"%d removals exceed tenant %q's rate-limit burst of %.0f rows", n, ten.Name, burst)
	}
	if wait, ok := ten.takeRows(n); !ok {
		return rateLimited(ten, wait)
	}
	return nil
}

// rateLimited reports a tenant over its deletion-row rate: HTTP 429 with a
// whole-second Retry-After, and the exact wait as retry_after_seconds.
func rateLimited(ten *Tenant, wait time.Duration) *APIError {
	e := apiErrorf(http.StatusTooManyRequests, ErrCodeRateLimited,
		"tenant %q is over its deletion rate limit (%.4g rows/s); retry in %.2fs",
		ten.Name, ten.DeletionRowsPerSec, wait.Seconds())
	e.RetryAfterSeconds = wait.Seconds()
	e.retryAfter = int(wait.Seconds()) + 1
	return e
}

// applyDeletionLocked appends removed to the session's cumulative removal
// log, folds fold (removed's ids new to the log; removed itself when the
// batch was validated distinct and new) through the session's live cursor
// and swaps in the new model. Callers hold sess.Mu and have checked
// GoneLocked.
func (s *Server) applyDeletionLocked(ctx context.Context, sess *Session, removed, fold []int) (commitResult, *APIError) {
	sess.Touch()
	start := time.Now()
	_, span := obs.StartSpan(ctx, "update")
	updated, err := sess.FoldLocked(fold)
	span.End()
	dt := time.Since(start)
	s.updateSeconds.Observe(dt.Seconds())
	if err != nil {
		return commitResult{}, apiErrorf(http.StatusBadRequest, ErrCodeUpdateFailed, "%v", err)
	}
	s.deletionRows.Add(int64(len(removed)))
	cmp, err := metrics.Compare(updated, sess.Model)
	if err != nil {
		// The updated model disagreeing in shape with the cached one is a
		// server-side invariant failure, not bad client input. The cursor
		// already holds the batch, which is not committed: drop it.
		sess.DropCursorLocked()
		return commitResult{}, apiErrorf(http.StatusInternalServerError, ErrCodeUpdateFailed,
			"internal error: comparing models: %v", err)
	}
	// Deletions are cumulative within a session. The log grows in place:
	// every reader copies it under Mu, and an append never rewrites the
	// prefix an earlier copy or slice holds.
	sess.Deleted = append(sess.Deleted, removed...)
	sess.Model = updated
	sess.Updates++
	sess.LastUpdateSeconds = dt.Seconds()
	sess.MarkDirtyLocked()
	return commitResult{
		params:        updated.Vec(),
		updateSeconds: dt.Seconds(),
		totalDeleted:  len(sess.Deleted),
		cosine:        cmp.Cosine,
	}, nil
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
