package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"mime"
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/priu"
	"repro/priu/obs"
	"repro/priu/store"
)

// The what-if query plane: POST /v2/sessions/{id}/whatif evaluates candidate
// deletion sets against a session's provenance capture WITHOUT committing
// anything — the session's durable state (model, parameters, deletion log)
// is never touched. Candidates arrive either as one JSON body
// {"sets":[[...],...]} or as NDJSON lines {"remove":[...]}; each set is
// answered with one NDJSON WhatIfSetResult line (parameter digest, metric
// deltas vs the live model, eval time), and the stream ends with a
// WhatIfSummary line carrying the prefix-tree cache-hit count.
//
// All sets on one connection share a priu.WhatIfPlanner, so overlapping
// candidates pay for their common prefix once: the shared prefix is applied
// to a scratch cursor and forked where sets diverge (incrementally for the
// PrIU-opt families, by pure replay for the rest). Batch-mode sets fan out
// on the internal/par pool, bounded by the -whatif-workers knob; each tenant
// is limited to a configurable number of concurrent what-if streams (typed
// 429).

// Additional v2 error codes introduced by the what-if plane.
const (
	// ErrCodeGone marks a session that was deleted while a what-if stream
	// against it was in flight; the stream terminates after this line.
	ErrCodeGone = "gone"
	// ErrCodeWhatIfLimited marks a what-if request rejected because the
	// tenant already has its maximum number of concurrent what-if
	// evaluations in flight (HTTP 429; retry after one completes).
	ErrCodeWhatIfLimited = "whatif_limited"
)

// defaultWhatIfLimit is the per-tenant cap on concurrent what-if streams.
const defaultWhatIfLimit = 8

// WithWhatIfWorkers bounds how many candidate sets of one what-if batch
// evaluate concurrently (0 = the shared worker-pool width).
func WithWhatIfWorkers(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.whatifWorkers = n
		}
	}
}

// WithWhatIfLimit caps each tenant's concurrent what-if streams; requests
// over the cap get a typed 429 (whatif_limited). 0 removes the cap.
func WithWhatIfLimit(n int) ServerOption { return func(s *Server) { s.whatifLimit = n } }

// WhatIfRequest is the JSON body of POST /v2/sessions/{id}/whatif (batch
// mode). Each inner slice is one candidate deletion set, evaluated on top of
// the session's already-committed deletions.
type WhatIfRequest struct {
	Sets [][]int `json:"sets"`
	// Parameters requests the hypothetical parameter vector on every result
	// line (the digest is always present).
	Parameters bool `json:"parameters,omitempty"`
}

// WhatIfSet is one NDJSON request line of the streaming mode
// (Content-Type: application/x-ndjson).
type WhatIfSet struct {
	Remove     []int `json:"remove"`
	Parameters bool  `json:"parameters,omitempty"`
}

// WhatIfDelta is the metric delta between a hypothetical model and the
// session's live model (see internal/metrics.Comparison).
type WhatIfDelta struct {
	L2Distance   float64 `json:"l2_distance"`
	Cosine       float64 `json:"cosine"`
	SignFlips    int     `json:"sign_flips"`
	MaxRelChange float64 `json:"max_rel_change"`
}

// WhatIfSetResult is the NDJSON response line for one evaluated candidate
// set. Digest is the same FNV-1a parameter digest the deletions stream
// reports, so a what-if can be compared bit-for-bit against a later commit.
type WhatIfSetResult struct {
	Set          int         `json:"set"`
	RowsRemoved  int         `json:"rows_removed"`
	TotalDeleted int         `json:"total_deleted"`
	EvalSeconds  float64     `json:"eval_seconds"`
	Digest       string      `json:"digest"`
	Delta        WhatIfDelta `json:"delta_vs_live"`
	// Parameters is only populated on request (WhatIfRequest.Parameters,
	// the per-line flag, or ?parameters=all).
	Parameters []float64 `json:"parameters,omitempty"`
}

// WhatIfSummary is the trailing NDJSON line of every what-if stream.
type WhatIfSummary struct {
	Summary   bool `json:"summary"`
	Sets      int  `json:"sets"`
	Evaluated int  `json:"evaluated"`
	Errors    int  `json:"errors"`
	// CacheHits counts prefix-tree edges reused across the sets — the
	// shared-prefix work the planner saved, in applied-row units.
	CacheHits int64 `json:"cache_hits"`
	// Incremental reports whether the session's family evaluated on the
	// incremental what-if cursor (vs pure replay).
	Incremental bool `json:"incremental"`
}

// whatifEvaluator carries one stream's immutable evaluation context: the
// session state snapshotted at stream open. Later committed deletions do not
// shift the baseline mid-stream.
type whatifEvaluator struct {
	planner *priu.WhatIfPlanner
	live    *priu.Model // live model at open (delta baseline)
	// logged is a copy of the committed log's membership set at open — the
	// bitset the commit path validates against. validate adds a candidate's
	// ids while it checks them and removes them before returning.
	logged store.RowSet
	n      int // training-set rows
	maxRem int
}

// validate checks one candidate set (the per-set cap, then checkRemovals)
// and returns its sorted union with the committed log (the id path the
// planner walks), or the typed error line. The union is read off the
// membership bits, so it comes out ascending and distinct with no sort.
func (e *whatifEvaluator) validate(candidate []int) ([]int, *APIError) {
	if len(candidate) > e.maxRem {
		return nil, &APIError{
			Code:    ErrCodeBatchTooLarge,
			Message: fmt.Sprintf("what-if set of %d removals exceeds the limit of %d", len(candidate), e.maxRem),
		}
	}
	if apiErr := checkRemovals(e.logged, e.n, candidate, "empty what-if set"); apiErr != nil {
		return nil, apiErr
	}
	for _, i := range candidate {
		e.logged.Add(i)
	}
	defer func() {
		for _, i := range candidate {
			e.logged.Remove(i)
		}
	}()
	size := 0
	for _, word := range e.logged {
		size += bits.OnesCount64(word)
	}
	union := make([]int, 0, size)
	for w, word := range e.logged {
		for ; word != 0; word &= word - 1 {
			union = append(union, w<<6|bits.TrailingZeros64(word))
		}
	}
	return union, nil
}

// result shapes one evaluated union into its wire line.
func (e *whatifEvaluator) result(setNo int, candidate, union []int, r priu.WhatIfResult, params bool) (WhatIfSetResult, *APIError) {
	if r.Err != nil {
		return WhatIfSetResult{}, &APIError{
			Code:    ErrCodeUpdateFailed,
			Message: fmt.Sprintf("set %d: %v", setNo, r.Err),
		}
	}
	cmp, err := metrics.Compare(r.Model, e.live)
	if err != nil {
		return WhatIfSetResult{}, &APIError{
			Code:    ErrCodeUpdateFailed,
			Message: fmt.Sprintf("set %d: comparing models: %v", setNo, err),
		}
	}
	out := WhatIfSetResult{
		Set:          setNo,
		RowsRemoved:  len(candidate),
		TotalDeleted: len(union),
		EvalSeconds:  r.Seconds,
		Digest:       ParamDigest(r.Model.Vec()),
		Delta: WhatIfDelta{
			L2Distance:   cmp.L2Distance,
			Cosine:       cmp.Cosine,
			SignFlips:    cmp.SignFlips,
			MaxRelChange: cmp.MaxRelMagnitudeChange,
		},
	}
	if params {
		out.Parameters = r.Model.Vec()
	}
	return out, nil
}

// handleV2WhatIf evaluates candidate deletion sets against a session without
// committing them. The session is pinned in the resident tier for the whole
// stream (the evictors leave pinned sessions and their spill files alone), so
// a long evaluation can never have its provenance dropped underneath it.
func (s *Server) handleV2WhatIf(w http.ResponseWriter, r *http.Request) {
	// Same full-duplex posture as the deletions stream: early errors must not
	// wait for an open-ended NDJSON request body to drain, and they close the
	// connection so a keep-alive reuse cannot race the unread body.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	earlyError := func(e *APIError) {
		w.Header().Set("Connection", "close")
		writeAPIError(w, e)
	}
	ten := tenantFor(r)
	tq := s.tc(ten.Name)
	wireID := r.PathValue("id")
	if !validWireID(wireID) {
		earlyError(apiErrorf(http.StatusNotFound, ErrCodeNotFound, "unknown session %q", wireID))
		return
	}
	id := ten.storeID(wireID)
	sess, ok := s.st.Get(id)
	if !ok {
		earlyError(apiErrorf(http.StatusNotFound, ErrCodeNotFound, "unknown session %q", wireID))
		return
	}
	if inFlight := tq.whatifActive.Add(1); s.whatifLimit > 0 && inFlight > int64(s.whatifLimit) {
		tq.whatifActive.Add(-1)
		tq.whatifLimited.Add(1)
		e := apiErrorf(http.StatusTooManyRequests, ErrCodeWhatIfLimited,
			"tenant %q already has %d what-if evaluations in flight (limit %d)",
			ten.Name, inFlight-1, s.whatifLimit)
		e.retryAfter = 1
		earlyError(e)
		return
	}
	defer tq.whatifActive.Add(-1)

	// Pin for the stream duration: budget eviction skips pinned sessions and
	// the disk-budget evictor skips resident sessions' spill files, so both
	// the in-memory provenance and its backing file survive a slow reader.
	sess.Pin()
	defer sess.Unpin()

	// Snapshot the state the whole stream evaluates against. The updater and
	// its provenance are immutable after capture; only the log and model need
	// the lock.
	sess.Mu.Lock()
	if sess.GoneLocked() {
		sess.Mu.Unlock()
		earlyError(apiErrorf(http.StatusNotFound, ErrCodeNotFound, "unknown session %q", wireID))
		return
	}
	sess.Touch()
	logged := append(store.RowSet(nil), sess.LoggedLocked()...)
	upd, live := sess.Upd, sess.Model
	rows := sess.DS.N()
	sess.Mu.Unlock()

	planStart := time.Now()
	_, planSpan := obs.StartSpan(r.Context(), "whatif.plan")
	planner, err := priu.NewWhatIfPlanner(upd)
	planSpan.End()
	s.whatifPlanSeconds.Observe(time.Since(planStart).Seconds())
	if err != nil {
		earlyError(apiErrorf(http.StatusInternalServerError, ErrCodeUpdateFailed,
			"building what-if planner: %v", err))
		return
	}
	ev := &whatifEvaluator{
		planner: planner,
		live:    live,
		logged:  logged,
		n:       rows,
		maxRem:  s.maxRemovals,
	}

	s.whatifs.Add(1)
	tq.whatifs.Add(1)
	allParams := r.URL.Query().Get("parameters") == "all"
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flush := func() { _ = rc.Flush() }
	sets, evaluated, errCount := 0, 0, 0
	countSet := func() { sets++; s.whatifSets.Add(1); tq.whatifSets.Add(1) }
	writeErrLine := func(ae APIError) {
		errCount++
		_ = enc.Encode(ErrorEnvelope{Error: ae})
		flush()
	}
	writeResult := func(res WhatIfSetResult) {
		evaluated++
		s.whatifEvalSeconds.Observe(res.EvalSeconds)
		_ = enc.Encode(res)
		flush()
	}
	summary := func() {
		hits := planner.CacheHits()
		s.whatifCacheHits.Add(hits)
		_ = enc.Encode(WhatIfSummary{
			Summary: true, Sets: sets, Evaluated: evaluated, Errors: errCount,
			CacheHits: hits, Incremental: planner.Incremental(),
		})
		flush()
	}

	// sessionGone re-checks the store so a mid-stream DELETE is honored: the
	// client's instruction to forget the data wins over an open evaluation.
	sessionGone := func() bool {
		cur, ok := s.st.Get(id)
		if !ok {
			return true
		}
		cur.Mu.Lock()
		defer cur.Mu.Unlock()
		return cur.GoneLocked()
	}

	if mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt == "application/x-ndjson" {
		// Streaming mode: one candidate set per request line, answered in
		// lockstep; the planner (and its prefix tree) persists across lines.
		dec := json.NewDecoder(r.Body)
		for lineNo := 1; ; lineNo++ {
			var set WhatIfSet
			if err := dec.Decode(&set); err != nil {
				if errors.Is(err, io.EOF) {
					summary()
					return
				}
				writeErrLine(APIError{
					Code:    ErrCodeBadRequest,
					Message: fmt.Sprintf("set %d: malformed JSON: %v", lineNo, err),
				})
				summary()
				return // cannot resync a corrupt stream
			}
			countSet()
			if sessionGone() {
				writeErrLine(APIError{
					Code:    ErrCodeGone,
					Message: fmt.Sprintf("session %q was deleted during the what-if stream", wireID),
				})
				summary()
				return
			}
			union, apiErr := ev.validate(set.Remove)
			if apiErr != nil {
				writeErrLine(*apiErr)
				continue
			}
			_, evalSpan := obs.StartSpan(r.Context(), "whatif.eval")
			res := planner.EvalBatch([][]int{union}, 1)[0]
			evalSpan.End()
			line, apiErr := ev.result(sets, set.Remove, union, res, allParams || set.Parameters)
			if apiErr != nil {
				writeErrLine(*apiErr)
				continue
			}
			writeResult(line)
		}
	}

	// Batch mode: one JSON body, all sets planned on the shared prefix tree
	// and evaluated concurrently, results streamed back in request order.
	var req WhatIfRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		earlyError(apiErrorf(http.StatusBadRequest, ErrCodeBadRequest, "decoding request: %v", err))
		return
	}
	if len(req.Sets) == 0 {
		earlyError(apiErrorf(http.StatusBadRequest, ErrCodeBadRequest, "sets is required (send at least one candidate deletion set)"))
		return
	}
	unions := make([][]int, len(req.Sets))
	setErrs := make([]*APIError, len(req.Sets))
	var valid [][]int
	for i, candidate := range req.Sets {
		union, apiErr := ev.validate(candidate)
		if apiErr != nil {
			setErrs[i] = apiErr
			continue
		}
		unions[i] = union
		valid = append(valid, union)
	}
	if sessionGone() {
		earlyError(apiErrorf(http.StatusNotFound, ErrCodeGone,
			"session %q was deleted before the what-if batch ran", wireID))
		return
	}
	_, evalSpan := obs.StartSpan(r.Context(), "whatif.eval")
	results := planner.EvalBatch(valid, s.whatifWorkers)
	evalSpan.End()
	next := 0
	for i, candidate := range req.Sets {
		countSet()
		if setErrs[i] != nil {
			writeErrLine(*setErrs[i])
			continue
		}
		res := results[next]
		next++
		line, apiErr := ev.result(sets, candidate, unions[i], res, req.Parameters || allParams)
		if apiErr != nil {
			writeErrLine(*apiErr)
			continue
		}
		writeResult(line)
	}
	summary()
}
