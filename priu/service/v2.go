package service

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"mime"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/priu"
	"repro/priu/obs"
	"repro/priu/store"
)

// The v2 API surface: REST session routing built directly on priu.Updater,
// typed {"error":{"code","message"}} envelopes, snapshot import/export, CSR
// uploads for sparse families, tenant-scoped listings and stats, and a
// streaming deletions endpoint that applies NDJSON removal batches on one
// connection and streams back per-batch parameter digests. Every route
// answers unknown methods with a typed 405 envelope carrying an Allow
// header.

// v2 error codes.
const (
	// ErrCodeBadRequest marks malformed JSON or invalid request shapes.
	ErrCodeBadRequest = "bad_request"
	// ErrCodeNotFound marks unknown sessions or routes.
	ErrCodeNotFound = "not_found"
	// ErrCodeMethodNotAllowed marks a known route called with an unsupported
	// HTTP method; the Allow header lists the supported ones.
	ErrCodeMethodNotAllowed = "method_not_allowed"
	// ErrCodeUnauthorized marks a missing or unknown API key.
	ErrCodeUnauthorized = "unauthorized"
	// ErrCodeQuota marks a registration rejected because the tenant is at
	// its session or byte quota.
	ErrCodeQuota = "insufficient_quota"
	// ErrCodeSpillQuota marks a registration rejected because the tenant
	// sits at its spill-byte cap: its disk-tier usage must shrink (delete
	// sessions) before the store takes on more state. Reported as HTTP 507
	// Insufficient Storage — a disk condition, not a request-rate one.
	ErrCodeSpillQuota = "spill_quota"
	// ErrCodeRateLimited marks a deletion batch rejected by the tenant's
	// rate limit; retry_after_seconds (and, on HTTP 429 responses, the
	// Retry-After header) say when to retry.
	ErrCodeRateLimited = "rate_limited"
	// ErrCodeInvalidRemovals marks empty, duplicate or out-of-range removal
	// indices.
	ErrCodeInvalidRemovals = "invalid_removals"
	// ErrCodeBatchTooLarge marks a removal batch above the server's limit
	// (or above the tenant's rate-limit burst, which no wait could admit).
	ErrCodeBatchTooLarge = "batch_too_large"
	// ErrCodeCaptureFailed marks a failed train/capture.
	ErrCodeCaptureFailed = "capture_failed"
	// ErrCodeSnapshotUnsupported marks families without snapshot support.
	ErrCodeSnapshotUnsupported = "snapshot_unsupported"
	// ErrCodeUpdateFailed marks a failed incremental update.
	ErrCodeUpdateFailed = "update_failed"
	// ErrCodeResidentPressure marks a registration rejected because the
	// resident tier's budget is exhausted and every evictable session is
	// pinned (exports or what-if streams in flight). Transient: retry after
	// the Retry-After header.
	ErrCodeResidentPressure = "resident_pressure"
	// ErrCodePeerUnavailable marks a fleet request whose owning replica did
	// not answer; the membership layer demotes the peer and the next attempt
	// lands on the new owner.
	ErrCodePeerUnavailable = "peer_unavailable"
)

// APIError is the typed error payload of every v2 failure, and the one error
// value the service core returns: each failure carries exactly one HTTP
// status, which v2 writes with the envelope and v1 with its flat shape.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSeconds accompanies rate_limited errors: how long until the
	// rejected batch would be admitted.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`

	// status is the failure's HTTP status; retryAfter, when positive, the
	// Retry-After header in whole seconds. Neither is part of the body.
	status     int
	retryAfter int
}

// apiErrorf builds an APIError with its HTTP status.
func apiErrorf(status int, code, format string, args ...any) *APIError {
	return &APIError{Code: code, Message: fmt.Sprintf(format, args...), status: status}
}

// writeHead writes the error's Retry-After and content type, then its status.
func (e *APIError) writeHead(w http.ResponseWriter) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
}

// ErrorEnvelope wraps an APIError as the v2 wire format.
type ErrorEnvelope struct {
	Error APIError `json:"error"`
}

// writeAPIError writes e as a v2 envelope under its status.
func writeAPIError(w http.ResponseWriter, e *APIError) {
	e.writeHead(w)
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: *e})
}

func writeV2Error(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeAPIError(w, apiErrorf(status, code, format, args...))
}

// CreateSessionRequest is the JSON body of POST /v2/sessions. Dense families
// take Features/Labels; sparse families take the CSR triple
// Indptr/Indices/Values plus Cols and Labels. Alternatively the endpoint
// accepts Content-Type: application/octet-stream with a priu snapshot
// (GET /v2/sessions/{id}/snapshot output) as the body.
type CreateSessionRequest struct {
	Family   string      `json:"family"`
	Features [][]float64 `json:"features,omitempty"`
	Labels   []float64   `json:"labels"`
	Classes  int         `json:"classes,omitempty"`
	// CSR upload (sparse families): row pointers (len n+1), column indices
	// and values (len nnz each), and the feature-space width.
	Indptr  []int     `json:"indptr,omitempty"`
	Indices []int     `json:"indices,omitempty"`
	Values  []float64 `json:"values,omitempty"`
	Cols    int       `json:"cols,omitempty"`

	Eta        float64 `json:"eta"`
	Lambda     float64 `json:"lambda"`
	BatchSize  int     `json:"batch_size"`
	Iterations int     `json:"iterations"`
	Seed       int64   `json:"seed"`
	// Mode selects the provenance-cache representation: "auto" (default),
	// "full" or "svd".
	Mode string `json:"mode,omitempty"`
	// Epsilon is the SVD coverage threshold (0 = default).
	Epsilon float64 `json:"epsilon,omitempty"`
}

// SessionResponse describes a session in v2 responses.
type SessionResponse struct {
	SessionID       string    `json:"session_id"`
	Family          string    `json:"family"`
	CreatedAt       time.Time `json:"created_at"`
	Parameters      []float64 `json:"parameters"`
	TotalDeleted    int       `json:"total_deleted"`
	FootprintBytes  int64     `json:"footprint_bytes"`
	Snapshottable   bool      `json:"snapshottable"`
	CaptureSeconds  float64   `json:"capture_seconds,omitempty"`
	RestoredFromSnp bool      `json:"restored_from_snapshot,omitempty"`
}

// DeletionBatch is one NDJSON line of POST /v2/sessions/{id}/deletions.
type DeletionBatch struct {
	Remove []int `json:"remove"`
	// Parameters requests the full updated parameter vector in this batch's
	// result line (the digest is always present). The ?parameters=all query
	// flag requests them on every batch.
	Parameters bool `json:"parameters,omitempty"`
}

// DeletionResult is the NDJSON response line for one applied batch.
type DeletionResult struct {
	Batch         int     `json:"batch"`
	Removed       int     `json:"removed"`
	TotalDeleted  int     `json:"total_deleted"`
	UpdateSeconds float64 `json:"update_seconds"`
	// Digest is an FNV-1a hash of the updated parameter vector — enough for
	// a streaming client to detect convergence/changes without shipping the
	// full parameters every batch.
	Digest       string  `json:"digest"`
	CosineVsPrev float64 `json:"cosine_vs_previous"`
	// Parameters is only populated when the batch sets "parameters":true or
	// the stream was opened with ?parameters=all.
	Parameters []float64 `json:"parameters,omitempty"`
}

// routeV2 registers one v2 path with an explicit method table, so every
// route answers unsupported methods with the typed 405 envelope and an Allow
// header instead of falling through to a 404.
func routeV2(mux *http.ServeMux, pattern string, methods map[string]http.HandlerFunc) {
	allowed := make([]string, 0, len(methods))
	for m := range methods {
		allowed = append(allowed, m)
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		h, ok := methods[r.Method]
		if !ok && r.Method == http.MethodHead {
			// HEAD rides on GET (net/http discards the body), matching the
			// ServeMux method-pattern behavior this dispatch replaced.
			h, ok = methods[http.MethodGet]
		}
		if ok {
			h(w, r)
			return
		}
		w.Header().Set("Allow", allow)
		writeV2Error(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed,
			"method %s not allowed on %s (allowed: %s)", r.Method, r.URL.Path, allow)
	})
}

// mountV2 registers the v2 REST routes on the mux.
func (s *Server) mountV2(mux *http.ServeMux) {
	routeV2(mux, "/v2/sessions", map[string]http.HandlerFunc{
		http.MethodPost: s.handleV2CreateSession,
		http.MethodGet:  s.handleV2ListSessions,
	})
	routeV2(mux, "/v2/sessions/{id}", map[string]http.HandlerFunc{
		http.MethodGet:    s.handleV2GetSession,
		http.MethodDelete: s.handleV2DeleteSession,
	})
	routeV2(mux, "/v2/sessions/{id}/snapshot", map[string]http.HandlerFunc{
		http.MethodGet: s.handleV2Snapshot,
	})
	routeV2(mux, "/v2/sessions/{id}/deletions", map[string]http.HandlerFunc{
		http.MethodPost: s.handleV2Deletions,
	})
	routeV2(mux, "/v2/sessions/{id}/whatif", map[string]http.HandlerFunc{
		http.MethodPost: s.handleV2WhatIf,
	})
	routeV2(mux, "/v2/tenants/self/stats", map[string]http.HandlerFunc{
		http.MethodGet: s.handleV2TenantStats,
	})
	routeV2(mux, "/v2/meta", map[string]http.HandlerFunc{
		http.MethodGet: s.handleV2Meta,
	})
	mux.HandleFunc("/v2/", func(w http.ResponseWriter, r *http.Request) {
		writeV2Error(w, http.StatusNotFound, ErrCodeNotFound, "no such v2 route %s %s", r.Method, r.URL.Path)
	})
}

// v2Session resolves a wire session ID inside the caller's namespace.
func (s *Server) v2Session(r *http.Request) (*Session, string, bool) {
	id := r.PathValue("id")
	if !validWireID(id) {
		return nil, id, false
	}
	sess, ok := s.st.Get(tenantFor(r).storeID(id))
	return sess, id, ok
}

func (s *Server) handleV2CreateSession(w http.ResponseWriter, r *http.Request) {
	if mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt == "application/octet-stream" {
		s.handleV2Restore(w, r)
		return
	}
	var req CreateSessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeV2Error(w, http.StatusBadRequest, ErrCodeBadRequest, "decoding request: %v", err)
		return
	}
	sess, took, e := s.createSession(r.Context(), tenantFor(r), &req)
	if e != nil {
		writeAPIError(w, e)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, s.v2SessionResponse(sess, took.Seconds(), false))
}

// createSession builds the training set a request describes (dense features
// or a CSR triple, as the family wants), trains it with provenance capture
// and registers the session in the tenant's namespace — the one creation
// path every API generation runs. It also returns the time from the start of
// capture through registration, which responses report as capture_seconds.
func (s *Server) createSession(ctx context.Context, ten *Tenant, req *CreateSessionRequest) (*Session, time.Duration, *APIError) {
	if req.Family == "" {
		return nil, 0, apiErrorf(http.StatusBadRequest, ErrCodeBadRequest, "family is required (one of %v)", priu.Families())
	}
	f, ok := priu.Lookup(req.Family)
	if !ok {
		return nil, 0, apiErrorf(http.StatusBadRequest, ErrCodeBadRequest, "unknown family %q (registered: %v)", req.Family, priu.Families())
	}
	var (
		d   priu.TrainingSet
		err error
	)
	switch {
	case f.Sparse:
		d, err = sparseDatasetFromRequest(f, req)
	case len(req.Indptr) > 0 || len(req.Values) > 0:
		err = fmt.Errorf("family %q trains on dense input; send features, not a CSR triple", req.Family)
	default:
		d, err = datasetFromRequest(f.Task, req.Features, req.Labels, req.Classes)
	}
	if err != nil {
		return nil, 0, apiErrorf(http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		return nil, 0, apiErrorf(http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
	}
	cfg := priu.Config{
		Eta: req.Eta, Lambda: req.Lambda,
		BatchSize: req.BatchSize, Iterations: req.Iterations, Seed: req.Seed,
		Mode: mode, Epsilon: req.Epsilon,
	}
	if qe := s.admitSession(ten); qe != nil {
		return nil, 0, s.registrationError(ten, qe)
	}
	start := time.Now()
	_, span := obs.StartSpan(ctx, "capture")
	upd, err := priu.TrainConfig(req.Family, d, cfg)
	span.End()
	s.captureSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, 0, apiErrorf(http.StatusBadRequest, ErrCodeCaptureFailed, "%v", err)
	}
	sess, err := s.addSession(ten, req.Family, d, upd, nil, nil)
	if err != nil {
		return nil, 0, s.registrationError(ten, err)
	}
	return sess, time.Since(start), nil
}

// datasetFromRequest builds the dense dataset for a JSON training request.
func datasetFromRequest(task dataset.Task, features [][]float64, labels []float64, classes int) (*dataset.Dataset, error) {
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

// sparseDatasetFromRequest builds the CSR dataset for a sparse-family
// training request from the indptr/indices/values triple.
func sparseDatasetFromRequest(f priu.Family, req *CreateSessionRequest) (*dataset.SparseDataset, error) {
	if len(req.Features) > 0 {
		return nil, fmt.Errorf("family %q trains on sparse input; send indptr/indices/values, not dense features", f.Name)
	}
	if len(req.Indptr) < 2 {
		return nil, fmt.Errorf("family %q needs a CSR body: indptr (len n+1), indices, values, cols and labels", f.Name)
	}
	n := len(req.Indptr) - 1
	if req.Cols <= 0 {
		return nil, fmt.Errorf("cols must be positive, got %d", req.Cols)
	}
	if len(req.Labels) != n {
		return nil, fmt.Errorf("%d labels for %d CSR rows", len(req.Labels), n)
	}
	if req.Indptr[0] != 0 {
		return nil, fmt.Errorf("indptr[0] must be 0, got %d", req.Indptr[0])
	}
	nnz := len(req.Values)
	if len(req.Indices) != nnz {
		return nil, fmt.Errorf("%d indices for %d values", len(req.Indices), nnz)
	}
	if req.Indptr[n] != nnz {
		return nil, fmt.Errorf("indptr[%d] = %d does not match %d stored values", n, req.Indptr[n], nnz)
	}
	trips := make([]sparse.Triplet, 0, nnz)
	for i := 0; i < n; i++ {
		lo, hi := req.Indptr[i], req.Indptr[i+1]
		if lo > hi || hi > nnz {
			return nil, fmt.Errorf("indptr is not monotonic at row %d (%d > %d)", i, lo, hi)
		}
		for k := lo; k < hi; k++ {
			trips = append(trips, sparse.Triplet{Row: i, Col: req.Indices[k], Val: req.Values[k]})
		}
	}
	x, err := sparse.NewCSR(n, req.Cols, trips)
	if err != nil {
		return nil, err
	}
	classes := req.Classes
	if f.Task == dataset.BinaryClassification {
		classes = 2
		for i, y := range req.Labels {
			if y != 1 && y != -1 {
				return nil, fmt.Errorf("label %d is %v, want ±1", i, y)
			}
		}
	}
	return &dataset.SparseDataset{
		Name:    "api",
		Task:    f.Task,
		Classes: classes,
		X:       x,
		Y:       req.Labels,
	}, nil
}

// parseMode maps the wire cache-mode name to the library value.
func parseMode(mode string) (priu.CacheMode, error) {
	switch mode {
	case "", "auto":
		return priu.ModeAuto, nil
	case "full":
		return priu.ModeFull, nil
	case "svd":
		return priu.ModeSVD, nil
	default:
		return 0, fmt.Errorf("unknown cache mode %q (auto|full|svd)", mode)
	}
}

// handleV2Restore creates a session from a streamed snapshot, replaying the
// snapshot's deletion log so already-honored deletions stay deleted.
func (s *Server) handleV2Restore(w http.ResponseWriter, r *http.Request) {
	ten := tenantFor(r)
	if qe := s.admitSession(ten); qe != nil {
		writeAPIError(w, s.registrationError(ten, qe))
		return
	}
	family, ds, upd, deleted, err := priu.ReadSessionSnapshot(r.Body)
	if err != nil {
		writeV2Error(w, http.StatusBadRequest, ErrCodeBadRequest, "restoring snapshot: %v", err)
		return
	}
	var model *priu.Model
	if len(deleted) > 0 {
		model, err = upd.Update(deleted)
		if err != nil {
			writeV2Error(w, http.StatusBadRequest, ErrCodeBadRequest, "replaying snapshot deletion log: %v", err)
			return
		}
	}
	sess, err := s.addSession(ten, family, ds, upd, deleted, model)
	if err != nil {
		writeAPIError(w, s.registrationError(ten, err))
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, s.v2SessionResponse(sess, 0, true))
}

// v2SessionResponse snapshots a session's public state. Callers must not
// hold sess.Mu.
func (s *Server) v2SessionResponse(sess *Session, captureSeconds float64, restored bool) SessionResponse {
	snapshottable := store.Spillable(sess.Kind, sess.Upd)
	sess.Mu.Lock()
	defer sess.Mu.Unlock()
	return SessionResponse{
		SessionID:       store.LocalID(sess.ID),
		Family:          sess.Kind,
		CreatedAt:       sess.CreatedAt,
		Parameters:      sess.Model.Vec(),
		TotalDeleted:    len(sess.Deleted),
		FootprintBytes:  sess.Footprint(),
		Snapshottable:   snapshottable,
		CaptureSeconds:  captureSeconds,
		RestoredFromSnp: restored,
	}
}

func (s *Server) handleV2GetSession(w http.ResponseWriter, r *http.Request) {
	sess, id, ok := s.v2Session(r)
	if !ok {
		writeV2Error(w, http.StatusNotFound, ErrCodeNotFound, "unknown session %q", id)
		return
	}
	writeJSON(w, s.v2SessionResponse(sess, 0, false))
}

// SessionInfo is one row of the GET /v2/sessions listing.
type SessionInfo struct {
	SessionID string    `json:"session_id"`
	Family    string    `json:"family"`
	CreatedAt time.Time `json:"created_at"`
	// Spilled marks sessions currently only in the disk tier (they restore
	// transparently on the next touch).
	Spilled bool `json:"spilled,omitempty"`
}

// SessionListResponse is the GET /v2/sessions envelope. NextCursor, when
// set, resumes the listing after the last returned session (pass it back as
// ?cursor=); an absent NextCursor means the listing is complete.
type SessionListResponse struct {
	Sessions   []SessionInfo `json:"sessions"`
	NextCursor string        `json:"next_cursor,omitempty"`
}

// pageParams are the ?limit= / ?cursor= listing parameters shared by the v1
// and v2 session listings.
type pageParams struct {
	limit  int
	cursor string
	// paged reports whether any paging parameter was present — the v1
	// listing only switches to the envelope shape when the caller opts in.
	paged bool
}

// parsePageParams reads the paging query parameters.
func parsePageParams(r *http.Request) (pageParams, error) {
	q := r.URL.Query()
	var p pageParams
	if q.Has("limit") {
		p.paged = true
		n, err := strconv.Atoi(q.Get("limit"))
		if err != nil || n <= 0 {
			return p, fmt.Errorf("limit must be a positive integer, got %q", q.Get("limit"))
		}
		p.limit = n
	}
	if q.Has("cursor") {
		p.paged = true
		p.cursor = q.Get("cursor")
	}
	return p, nil
}

// pageWindow computes the [lo,hi) window of a listing already sorted by
// sessionIDLess, resuming strictly after the cursor, plus the next cursor
// ("" when nothing follows). The cursor is an ID, not an offset, so pages
// stay stable while sessions are created or deleted between requests.
func pageWindow(n int, idAt func(i int) string, p pageParams) (int, int, string) {
	lo := 0
	if p.cursor != "" {
		lo = sort.Search(n, func(i int) bool { return sessionIDLess(p.cursor, idAt(i)) })
	}
	hi := n
	if p.limit > 0 && lo+p.limit < n {
		hi = lo + p.limit
	}
	next := ""
	if hi < n && hi > lo {
		next = idAt(hi - 1)
	}
	return lo, hi, next
}

// listSessions builds the caller's full sorted session listing (resident and
// spilled rows merged).
func (s *Server) listSessions(ten *Tenant) []SessionInfo {
	out := []SessionInfo{}
	seen := map[string]bool{}
	s.st.Range(func(sess *Session) bool {
		if store.TenantOf(sess.ID) != ten.Name {
			return true
		}
		out = append(out, SessionInfo{SessionID: store.LocalID(sess.ID), Family: sess.Kind, CreatedAt: sess.CreatedAt})
		seen[sess.ID] = true
		return true
	})
	for _, sp := range s.st.Stats().SpilledSessions {
		if store.TenantOf(sp.ID) == ten.Name && !seen[sp.ID] {
			out = append(out, SessionInfo{SessionID: store.LocalID(sp.ID), Family: sp.Kind, CreatedAt: sp.CreatedAt, Spilled: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return sessionIDLess(out[i].SessionID, out[j].SessionID) })
	return out
}

func (s *Server) handleV2ListSessions(w http.ResponseWriter, r *http.Request) {
	p, err := parsePageParams(r)
	if err != nil {
		writeV2Error(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	out := s.listSessions(tenantFor(r))
	lo, hi, next := pageWindow(len(out), func(i int) string { return out[i].SessionID }, p)
	writeJSON(w, SessionListResponse{Sessions: out[lo:hi], NextCursor: next})
}

func (s *Server) handleV2DeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validWireID(id) || !s.st.Delete(tenantFor(r).storeID(id)) {
		writeV2Error(w, http.StatusNotFound, ErrCodeNotFound, "unknown session %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleV2Snapshot(w http.ResponseWriter, r *http.Request) {
	sess, id, ok := s.v2Session(r)
	if !ok {
		writeV2Error(w, http.StatusNotFound, ErrCodeNotFound, "unknown session %q", id)
		return
	}
	if !store.Spillable(sess.Kind, sess.Upd) {
		writeV2Error(w, http.StatusConflict, ErrCodeSnapshotUnsupported,
			"family %q does not support snapshots", sess.Kind)
		return
	}
	// Pin for the export duration: a slow download must not have its session
	// (or the session's spill file) evicted out from under the stream.
	sess.Pin()
	defer sess.Unpin()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Priu-Family", sess.Kind)
	// Provenance is immutable after capture, so only the deletion log needs
	// the session lock; the log rides along so a restored session keeps
	// honoring deletions applied here.
	sess.Mu.Lock()
	deleted := append([]int(nil), sess.Deleted...)
	sess.Mu.Unlock()
	start := time.Now()
	_, span := obs.StartSpan(r.Context(), "snapshot.serialize")
	err := priu.WriteSessionSnapshot(w, sess.Kind, sess.DS, sess.Upd, deleted)
	span.End()
	s.snapshotSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		// Headers are gone; the stream just terminates early. Log-free
		// minimal handling: the client sees a truncated stream and the
		// snapshot loader fails closed.
		return
	}
}

// handleV2Deletions streams removal batches on one connection: each request
// NDJSON line {"remove":[...]} is validated, charged against the tenant's
// rate limit, applied cumulatively to the session, and answered with one
// NDJSON DeletionResult (or ErrorEnvelope) line, flushed immediately.
// Invalid or throttled batches report an error line and do not abort the
// stream — a throttled client waits retry_after_seconds and resends — while
// a malformed (non-JSON) line or a session that disappeared does.
func (s *Server) handleV2Deletions(w http.ResponseWriter, r *http.Request) {
	// Full-duplex from the very first write: even the early error responses
	// (404/429) must not wait for the server to drain an open-ended NDJSON
	// request body — a client that streams its first batch and then blocks
	// on the response would deadlock against the drain otherwise. Those
	// early errors also close the connection: the handler returns with the
	// streamed body unread, and a keep-alive reuse would race net/http's
	// leftover body read against the next request ("invalid concurrent
	// Body.Read" panics).
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	earlyError := func(e *APIError) {
		w.Header().Set("Connection", "close")
		writeAPIError(w, e)
	}
	ten := tenantFor(r)
	wireID := r.PathValue("id")
	id := ten.storeID(wireID)
	if !validWireID(wireID) {
		earlyError(apiErrorf(http.StatusNotFound, ErrCodeNotFound, "unknown session %q", wireID))
		return
	}
	if _, ok := s.st.Get(id); !ok {
		earlyError(apiErrorf(http.StatusNotFound, ErrCodeNotFound, "unknown session %q", wireID))
		return
	}
	// An already-exhausted bucket rejects the stream at open with a plain
	// HTTP 429 + Retry-After, so a throttled client doesn't even hold a
	// connection; once streaming, throttling is reported per batch.
	if wait := ten.streamWait(); wait > 0 {
		s.tc(ten.Name).rateLimited.Add(1)
		earlyError(rateLimited(ten, wait))
		return
	}
	paramMode := r.URL.Query().Get("parameters")
	streamStart := time.Now()
	defer func() { s.streamSeconds.Observe(time.Since(streamStart).Seconds()) }()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flush := func() { _ = rc.Flush() }
	rq := &s.reqs[store.ShardIndex(id)]
	tq := s.tc(ten.Name)
	dec := json.NewDecoder(r.Body)
	for batchNo := 1; ; batchNo++ {
		var batch DeletionBatch
		if err := dec.Decode(&batch); err != nil {
			if errors.Is(err, io.EOF) {
				return
			}
			rq.deleteErrors.Add(1)
			tq.deleteErrors.Add(1)
			_ = enc.Encode(ErrorEnvelope{Error: APIError{
				Code:    ErrCodeBadRequest,
				Message: fmt.Sprintf("batch %d: malformed JSON: %v", batchNo, err),
			}})
			flush()
			return // cannot resync a corrupt stream
		}
		res, e := s.commit(r.Context(), ten, wireID, batch.Remove, validateBatchLocked)
		if e != nil {
			e.Message = fmt.Sprintf("batch %d: %s", batchNo, e.Message)
			_ = enc.Encode(ErrorEnvelope{Error: *e})
			flush()
			if e.Code == ErrCodeNotFound {
				return // the session is gone; later batches cannot succeed
			}
			continue
		}
		result := DeletionResult{
			Batch:         batchNo,
			Removed:       len(batch.Remove),
			TotalDeleted:  res.totalDeleted,
			UpdateSeconds: res.updateSeconds,
			Digest:        ParamDigest(res.params),
			CosineVsPrev:  res.cosine,
		}
		if paramMode == "all" || batch.Parameters {
			result.Parameters = res.params
		}
		_ = enc.Encode(result)
		flush()
	}
}

// TenantStatsResponse is the GET /v2/tenants/self/stats payload: the calling
// tenant's storage usage, configured limits and request counters.
type TenantStatsResponse struct {
	Tenant        string `json:"tenant"`
	Authenticated bool   `json:"authenticated"`

	ResidentSessions int   `json:"resident_sessions"`
	ResidentBytes    int64 `json:"resident_bytes"`
	SpilledSessions  int   `json:"spilled_sessions"`
	SpilledBytes     int64 `json:"spilled_bytes"`
	// SpillFileBytes is the tenant's actual on-disk spill-file usage — the
	// quantity its max_spill_bytes cap is checked against.
	SpillFileBytes int64 `json:"spill_file_bytes,omitempty"`

	MaxSessions        int     `json:"max_sessions,omitempty"`
	MaxBytes           int64   `json:"max_bytes,omitempty"`
	MaxSpillBytes      int64   `json:"max_spill_bytes,omitempty"`
	DeletionRowsPerSec float64 `json:"deletion_rows_per_sec,omitempty"`
	Burst              float64 `json:"burst,omitempty"`

	Trains          int64 `json:"trains"`
	Deletes         int64 `json:"deletes"`
	DeleteErrors    int64 `json:"delete_errors"`
	RowsDeleted     int64 `json:"rows_deleted"`
	RateLimited     int64 `json:"rate_limited"`
	QuotaRejections int64 `json:"quota_rejections"`
	BudgetEvictions int64 `json:"budget_evictions"`
	ExplicitDeletes int64 `json:"explicit_deletes"`
	// DiskEvictions counts the tenant's cold sessions dropped by the global
	// disk budget.
	DiskEvictions int64 `json:"disk_evictions,omitempty"`
	// What-if plane: streams served, candidate sets evaluated, streams
	// currently in flight, and concurrency-limit rejections.
	WhatIfs       int64 `json:"whatifs,omitempty"`
	WhatIfSets    int64 `json:"whatif_sets,omitempty"`
	WhatIfActive  int64 `json:"whatif_active,omitempty"`
	WhatIfLimited int64 `json:"whatif_limited,omitempty"`
}

func (s *Server) handleV2TenantStats(w http.ResponseWriter, r *http.Request) {
	ten := tenantFor(r)
	u := s.st.TenantUsage(ten.Name)
	st := s.st.Stats().Tenants[ten.Name]
	tq := s.tc(ten.Name)
	writeJSON(w, TenantStatsResponse{
		Tenant:             ten.Name,
		Authenticated:      ten.Authenticated(),
		ResidentSessions:   u.Resident,
		ResidentBytes:      u.ResidentBytes,
		SpilledSessions:    u.Spilled,
		SpilledBytes:       u.SpilledBytes,
		SpillFileBytes:     u.SpillFileBytes,
		MaxSessions:        ten.MaxSessions,
		MaxBytes:           ten.MaxBytes,
		MaxSpillBytes:      ten.MaxSpillBytes,
		DeletionRowsPerSec: ten.DeletionRowsPerSec,
		Burst:              ten.Capacity(),
		Trains:             tq.trains.Value(),
		Deletes:            tq.deletes.Value(),
		DeleteErrors:       tq.deleteErrors.Value(),
		RowsDeleted:        tq.rowsDeleted.Value(),
		RateLimited:        tq.rateLimited.Value(),
		QuotaRejections:    tq.quotaRejections.Value(),
		BudgetEvictions:    st.BudgetEvictions,
		ExplicitDeletes:    st.ExplicitDeletes,
		DiskEvictions:      st.DiskEvictions,
		WhatIfs:            tq.whatifs.Value(),
		WhatIfSets:         tq.whatifSets.Value(),
		WhatIfActive:       tq.whatifActive.Value(),
		WhatIfLimited:      tq.whatifLimited.Value(),
	})
}

// validateBatchLocked is v2's under-lock step of commit: it checks one
// removal batch against the session's bounds and cumulative deletion log and
// folds the batch as sent. Callers hold sess.Mu.
func validateBatchLocked(sess *Session, removed []int) ([]int, *APIError) {
	if len(removed) == 0 {
		return nil, apiErrorf(http.StatusBadRequest, ErrCodeInvalidRemovals, "empty removal set")
	}
	n := sess.DS.N()
	for _, i := range removed {
		if i < 0 || i >= n {
			return nil, apiErrorf(http.StatusBadRequest, ErrCodeInvalidRemovals,
				"removal index %d out of range [0,%d)", i, n)
		}
	}
	// Each id joins the log's membership set as it passes, so a repeat
	// within the batch reads as already deleted; the ids leave it again
	// before returning.
	logged := sess.LoggedLocked()
	var e *APIError
	k := 0
	for ; k < len(removed); k++ {
		i := removed[k]
		if logged.Has(i) {
			e = apiErrorf(http.StatusBadRequest, ErrCodeInvalidRemovals,
				"removal index %d is duplicated or already deleted", i)
			break
		}
		logged.Add(i)
	}
	for _, i := range removed[:k] {
		logged.Remove(i)
	}
	if e != nil {
		return nil, e
	}
	return removed, nil
}

// ParamDigest hashes a parameter vector (FNV-1a over the float bits) into a
// short hex token for streaming responses. Exported so clients (priu/client)
// can verify returned parameters against the digest the server computed.
func ParamDigest(params []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range params {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
