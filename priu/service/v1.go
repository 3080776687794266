package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/par"
	"repro/priu/obs"
	"repro/priu/store"
)

// The v1 surface (deprecated): wire-format adapters over the core the v2
// routes run. /v1/train converts its request and calls createSession,
// /v1/delete runs every item through commit with v1's duplicate-tolerant
// fold, and failures are the core's APIErrors written in v1's flat
// {"error":"..."} shape under the same HTTP status. Every v1 route, wire
// type and handler lives in this file, so retiring v1 at its sunset date is
// deleting it and the mountV1 call.

// v1Sunset is the advertised retirement date of the /v1 surface (an RFC 9110
// HTTP-date, carried in the Sunset header of every v1 response).
const v1Sunset = "Thu, 01 Jul 2027 00:00:00 GMT"

// mountV1 registers the v1 routes, each marked deprecated.
func (s *Server) mountV1(mux *http.ServeMux) {
	mux.HandleFunc("/v1/train", deprecateV1(s.handleTrain))
	mux.HandleFunc("/v1/delete", deprecateV1(s.handleDelete))
	mux.HandleFunc("/v1/model/", deprecateV1(s.handleModel))
	mux.HandleFunc("/v1/sessions", deprecateV1(s.handleSessions))
	mux.HandleFunc("/v1/stats", deprecateV1(s.handleStats))
}

// deprecateV1 marks a v1 response as deprecated: Deprecation (RFC 9745),
// Sunset (RFC 8594) and a successor-version link to the v2 discovery
// endpoint. The v1 bodies are unchanged — existing callers keep working
// until the sunset date.
func deprecateV1(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Sunset", v1Sunset)
		w.Header().Set("Link", `</v2/meta>; rel="successor-version"`)
		h(w, r)
	}
}

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

// writeFlat writes e in v1's flat {"error":"..."} shape under its status.
func writeFlat(w http.ResponseWriter, e *APIError) {
	e.writeHead(w)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": e.Message})
}

// writeError writes a flat v1 error built from a format.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeFlat(w, apiErrorf(status, "", format, args...))
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req TrainRequest
	b, err := readBody(r)
	if err == nil {
		err = decodeTrain(b, &req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	sess, took, e := s.createSession(r.Context(), tenantFor(r), &CreateSessionRequest{
		Family: req.Kind, Features: req.Features, Labels: req.Labels, Classes: req.Classes,
		Eta: req.Eta, Lambda: req.Lambda,
		BatchSize: req.BatchSize, Iterations: req.Iterations, Seed: req.Seed,
	})
	if e != nil {
		writeFlat(w, e)
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
		ProvenanceMB:   float64(sess.Upd.FootprintBytes()) / (1 << 20),
		CaptureSeconds: took.Seconds(),
	})
}

// handleDelete runs a single-session delete or a batch. Batch items execute
// concurrently on the shared worker pool: items targeting the same session
// serialize on that session's mutex, everything else proceeds independently,
// and results keep request order.
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
	if len(req.Batch) == 0 {
		resp, e := s.deleteItem(r, DeleteItem{SessionID: req.SessionID, Removed: req.Removed})
		if e != nil {
			writeFlat(w, e)
			return
		}
		writeJSON(w, resp)
		return
	}
	if req.SessionID != "" || len(req.Removed) > 0 {
		writeError(w, http.StatusBadRequest, "set either session_id/removed or batch, not both")
		return
	}
	results := make([]BatchDeleteResult, len(req.Batch))
	par.For(len(req.Batch), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i].SessionID = req.Batch[i].SessionID
			resp, e := s.deleteItem(r, req.Batch[i])
			if e != nil {
				results[i].Error = e.Message
				continue
			}
			results[i].Result = &resp
		}
	})
	writeJSON(w, BatchDeleteResponse{Results: results})
}

// deleteItem commits one session's removals through the shared commit path,
// or — when another fleet node owns the session and the request has not
// already hopped — runs it at the owner as a single-session delete.
func (s *Server) deleteItem(r *http.Request, item DeleteItem) (DeleteResponse, *APIError) {
	ten := tenantFor(r)
	if s.cluster != nil && r.Header.Get(fleetHopHeader) == "" {
		if owner, self := s.cluster.Owner(ten.storeID(item.SessionID)); !self {
			return s.deleteAtOwner(r, owner, item)
		}
	}
	res, e := s.commit(r.Context(), ten, item.SessionID, item.Removed, v1Fold)
	if e != nil {
		return DeleteResponse{}, e
	}
	return DeleteResponse{
		SessionID:     item.SessionID,
		Parameters:    res.params,
		UpdateSeconds: res.updateSeconds,
		TotalDeleted:  res.totalDeleted,
		CosineVsPrev:  res.cosine,
	}, nil
}

// deleteAtOwner posts one item to the owning peer as a single-session
// /v1/delete, carrying the caller's credentials, trace ID and the single-hop
// guard. The owner's rejection keeps its status, Retry-After and message; an
// owner that cannot be reached is demoted at once and reported as a 502.
func (s *Server) deleteAtOwner(r *http.Request, owner string, item DeleteItem) (DeleteResponse, *APIError) {
	s.fleetProxied.Add(1)
	body, _ := json.Marshal(DeleteRequest{SessionID: item.SessionID, Removed: item.Removed}) // a string and ints always encode
	var resp *http.Response
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+"/v1/delete", bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(fleetHopHeader, s.cluster.Self())
		for _, h := range []string{"Authorization", obs.TraceHeader} {
			if v := r.Header.Get(h); v != "" {
				req.Header.Set(h, v)
			}
		}
		resp, err = http.DefaultClient.Do(req)
	}
	if err != nil {
		s.cluster.ReportFailure(owner)
		return DeleteResponse{}, apiErrorf(http.StatusBadGateway, ErrCodePeerUnavailable,
			"forwarding to session owner %s: %v", owner, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var flat struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&flat) != nil || flat.Error == "" {
			flat.Error = "session owner " + owner + " answered " + resp.Status
		}
		e := apiErrorf(resp.StatusCode, "", "%s", flat.Error)
		e.retryAfter, _ = strconv.Atoi(resp.Header.Get("Retry-After"))
		return DeleteResponse{}, e
	}
	var out DeleteResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return DeleteResponse{}, apiErrorf(http.StatusBadGateway, ErrCodePeerUnavailable,
			"decoding session owner %s's response: %v", owner, err)
	}
	return out, nil
}

// v1Fold is v1's under-lock step of commit: it rejects an empty batch and
// returns the part of the batch the session's cursor folds. v1 tolerates ids
// repeated within the batch or already in the log — they still join the log
// as sent and count toward total_deleted — so only each new id's first
// occurrence folds. Callers hold sess.Mu.
func v1Fold(sess *Session, removed []int) ([]int, *APIError) {
	if len(removed) == 0 {
		return nil, apiErrorf(http.StatusBadRequest, ErrCodeInvalidRemovals, "empty removal set")
	}
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
	return fold, nil
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
