// Package client is the typed Go SDK for the PrIU deletion service's /v2
// API: session CRUD, snapshot export/restore streaming, the full-duplex
// NDJSON deletions stream (with server-digest verification), and tenant
// stats — all authenticated with the same "Authorization: Bearer" API keys
// priu/service resolves to tenants.
//
//	cl := client.New("http://localhost:8080", client.WithAPIKey(key))
//	sr, err := cl.CreateSession(ctx, service.CreateSessionRequest{...})
//	st, err := cl.StreamDeletions(ctx, sr.SessionID, client.StreamVerifyDigests())
//	res, err := st.Send([]int{3, 17, 256})
//
// Wire types are shared with repro/priu/service, so the SDK can never drift
// from the server's formats. Every non-2xx response is decoded into
// *APIError, carrying the typed v2 error code and, for rate-limited calls,
// the server's Retry-After.
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/priu/obs"
	"repro/priu/service"
)

// Client talks to one priu deletion service — or, with WithPeers, to a
// replica fleet. It is safe for concurrent use.
type Client struct {
	base      string
	peers     []string
	retries   int
	key       string
	hc        *http.Client
	placement *placement
}

// Option configures New.
type Option func(*Client)

// WithAPIKey authenticates every request with the tenant API key.
func WithAPIKey(key string) Option { return func(c *Client) { c.key = key } }

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). The default follows the fleet's 307 ownership
// redirects with the API key re-attached (Go strips Authorization across
// hosts); a substituted client is used as-is.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithPeers supplies the other replicas of a priuserve fleet. Requests that
// fail at the transport level — or with a transient 502 peer_unavailable /
// 503 resident_pressure — are retried against the next replica with jittered
// backoff, so a node loss costs a retry, not an error. Streams
// (StreamDeletions, Snapshot bodies in flight) are not replayed.
func WithPeers(urls ...string) Option {
	return func(c *Client) {
		for _, u := range urls {
			c.peers = append(c.peers, strings.TrimRight(u, "/"))
		}
	}
}

// WithRetries sets the total attempt count for retryable requests (default:
// one attempt per configured base URL, twice around the fleet).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// New returns a client for the service at baseURL (e.g. "http://host:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/")}
	for _, opt := range opts {
		opt(c)
	}
	if c.hc == nil {
		// A fleet member answers requests for sessions it doesn't own with
		// a 307 to the owner. net/http drops Authorization when following a
		// redirect to a different host, so the default client re-attaches it
		// (fleet peers share one trust domain — the same key file).
		c.hc = &http.Client{CheckRedirect: func(req *http.Request, via []*http.Request) error {
			if len(via) >= 10 {
				return fmt.Errorf("client: stopped after 10 redirects")
			}
			if c.key != "" {
				req.Header.Set("Authorization", "Bearer "+c.key)
			}
			// A fleet 307 means our cached placement (if any) pointed at a
			// non-owner; refresh the ring before the next request.
			if c.placement != nil {
				c.placement.markStale()
			}
			return nil
		}}
	}
	return c
}

// APIError is a non-2xx service response: the HTTP status, the typed v2
// error code ("not_found", "insufficient_quota", "rate_limited", ...) and
// message, and — when the server sent one — how long to wait before
// retrying. Errors returned mid-stream by DeletionStream.Send carry a zero
// Status (the stream itself is still HTTP 200).
type APIError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
	// TraceID is the X-Priu-Trace ID the failing request ran under; quote it
	// when reporting — operators can pull the request's span tree from the
	// server's /v2/debug/traces/{id} admin endpoint.
	TraceID string
}

func (e *APIError) Error() string {
	msg := e.Message
	if msg == "" {
		msg = "request failed"
	}
	if e.Status != 0 {
		msg = fmt.Sprintf("%s (http %d)", msg, e.Status)
	}
	if e.Code != "" {
		return fmt.Sprintf("priu: %s: %s", e.Code, msg)
	}
	return "priu: " + msg
}

// IsRateLimited reports whether err is a rate-limit rejection; callers
// should wait RetryAfter and resend.
func IsRateLimited(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Code == service.ErrCodeRateLimited
}

// IsQuota reports whether err is a tenant-quota rejection.
func IsQuota(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Code == service.ErrCodeQuota
}

// IsSpillQuota reports whether err is a spill-byte-cap rejection (HTTP 507):
// the tenant's on-disk spill usage must shrink — delete sessions — before
// new registrations are admitted.
func IsSpillQuota(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Code == service.ErrCodeSpillQuota
}

// IsNotFound reports whether err is an unknown-session (or route) error.
func IsNotFound(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Code == service.ErrCodeNotFound
}

// IsResidentPressure reports whether err is a transient 503: the server's
// resident tier is at budget with every evictable session pinned. Wait
// RetryAfter and resend (the fleet-aware retry loop does this itself).
func IsResidentPressure(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Code == service.ErrCodeResidentPressure
}

// IsPeerUnavailable reports whether err is a fleet forward that failed
// because the session's owning replica did not answer; retrying reaches the
// failed-over owner.
func IsPeerUnavailable(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Code == service.ErrCodePeerUnavailable
}

// decodeError turns a non-2xx response into *APIError. It understands both
// the v2 envelope and v1's flat {"error": "..."} shape.
func decodeError(resp *http.Response) *APIError {
	ae := &APIError{Status: resp.StatusCode, TraceID: resp.Header.Get(obs.TraceHeader)}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env struct {
		Error json.RawMessage `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err == nil && len(env.Error) > 0 {
		var typed service.APIError
		if err := json.Unmarshal(env.Error, &typed); err == nil && typed.Code != "" {
			ae.Code, ae.Message = typed.Code, typed.Message
			if typed.RetryAfterSeconds > 0 {
				ae.RetryAfter = time.Duration(typed.RetryAfterSeconds * float64(time.Second))
			}
			return ae
		}
		var flat string
		if err := json.Unmarshal(env.Error, &flat); err == nil {
			ae.Message = flat
			return ae
		}
	}
	ae.Message = strings.TrimSpace(string(body))
	return ae
}

// streamAPIError maps an NDJSON error line into *APIError (Status 0: the
// stream is still 200).
func streamAPIError(e service.APIError) *APIError {
	return &APIError{
		Code:       e.Code,
		Message:    e.Message,
		RetryAfter: time.Duration(e.RetryAfterSeconds * float64(time.Second)),
	}
}

// newRequest builds an authenticated request for a service path.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	return req, nil
}

// retarget points a cloned request at another replica's base URL.
func retarget(req *http.Request, base string) error {
	u, err := url.Parse(base)
	if err != nil {
		return fmt.Errorf("client: bad replica URL %q: %w", base, err)
	}
	req.URL.Scheme = u.Scheme
	req.URL.Host = u.Host
	req.Host = ""
	return nil
}

// doRetry executes a request, retrying transport errors and transient
// rejections (502 peer_unavailable, 503 resident_pressure) across the
// configured replica set with jittered backoff — honoring a server
// Retry-After when one was sent. Requests whose bodies cannot be replayed
// (GetBody unset on a non-nil body) are executed exactly once.
func (c *Client) doRetry(req *http.Request) (*http.Response, error) {
	bases := c.orderBases(req.Context(), req.URL.Path)
	attempts := c.retries
	if attempts <= 0 {
		attempts = 2 * len(bases)
	}
	if attempts == 1 || (req.Body != nil && req.GetBody == nil) {
		// Single-shot requests still benefit from placement: aim the one
		// attempt at the likely owner.
		if bases[0] != c.base {
			if err := retarget(req, bases[0]); err != nil {
				return nil, err
			}
		}
		return c.hc.Do(req)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		r2 := req.Clone(req.Context())
		if err := retarget(r2, bases[i%len(bases)]); err != nil {
			return nil, err
		}
		if req.GetBody != nil {
			body, err := req.GetBody()
			if err != nil {
				return nil, err
			}
			r2.Body = body
		}
		resp, err := c.hc.Do(r2)
		retryAfter := time.Duration(0)
		switch {
		case err != nil:
			lastErr = err
		case resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable:
			ae := decodeError(resp)
			resp.Body.Close()
			lastErr, retryAfter = ae, ae.RetryAfter
		default:
			return resp, nil
		}
		if i == attempts-1 {
			break
		}
		// Jittered exponential backoff, 25–75ms doubling per round, capped
		// at 1s; a server-sent Retry-After (capped at 2s) wins when longer.
		wait := time.Duration(float64(50*time.Millisecond) * float64(int(1)<<uint(i%8)) * (0.5 + rand.Float64()*0.5))
		if wait > time.Second {
			wait = time.Second
		}
		if retryAfter > wait {
			wait = min(retryAfter, 2*time.Second)
		}
		select {
		case <-time.After(wait):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return nil, lastErr
}

// doJSON executes a request and decodes a 2xx JSON response into out.
func (c *Client) doJSON(req *http.Request, out any) error {
	resp, err := c.doRetry(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// CreateSession trains a new session (dense features or a CSR triple; see
// service.CreateSessionRequest) and returns its metadata and initial
// parameters. The body is the bytes json.Marshal(req) writes; a NaN or ±Inf
// anywhere in req fails here, before anything is sent.
func (c *Client) CreateSession(ctx context.Context, req service.CreateSessionRequest) (*service.SessionResponse, error) {
	pieces, err := encodeCreate(&req)
	if err != nil {
		return nil, err
	}
	hreq, err := c.newRequest(ctx, http.MethodPost, "/v2/sessions", nil)
	if err != nil {
		return nil, err
	}
	hreq.GetBody, hreq.ContentLength = piecesBody(pieces)
	hreq.Body, _ = hreq.GetBody() // it cannot fail
	hreq.Header.Set("Content-Type", "application/json")
	var sr service.SessionResponse
	if err := c.doJSON(hreq, &sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

// GetSession fetches a session's metadata and current parameters.
func (c *Client) GetSession(ctx context.Context, id string) (*service.SessionResponse, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v2/sessions/"+id, nil)
	if err != nil {
		return nil, err
	}
	var sr service.SessionResponse
	if err := c.doJSON(req, &sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

// ListSessionsPage fetches one page of the calling tenant's sessions.
// limit <= 0 asks for everything in one page; cursor resumes after the last
// session ID of the previous page. NextCursor is empty on the final page.
func (c *Client) ListSessionsPage(ctx context.Context, limit int, cursor string) (*service.SessionListResponse, error) {
	path := "/v2/sessions"
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	var page service.SessionListResponse
	if err := c.doJSON(req, &page); err != nil {
		return nil, err
	}
	return &page, nil
}

// ListSessions lists all of the calling tenant's sessions (resident and
// spilled), transparently following pagination cursors.
func (c *Client) ListSessions(ctx context.Context) ([]service.SessionInfo, error) {
	var out []service.SessionInfo
	it := c.Sessions(ctx, 0)
	for it.Next() {
		out = append(out, it.Session())
	}
	return out, it.Err()
}

// Sessions returns an iterator over the tenant's sessions that fetches pages
// of pageSize lazily (pageSize <= 0 uses one unpaged request). Typical use:
//
//	it := cl.Sessions(ctx, 100)
//	for it.Next() {
//		si := it.Session()
//		...
//	}
//	if err := it.Err(); err != nil { ... }
func (c *Client) Sessions(ctx context.Context, pageSize int) *SessionIterator {
	return &SessionIterator{c: c, ctx: ctx, pageSize: pageSize}
}

// SessionIterator walks a paginated session listing. It is not safe for
// concurrent use.
type SessionIterator struct {
	c        *Client
	ctx      context.Context
	pageSize int
	page     []service.SessionInfo
	idx      int
	cursor   string
	done     bool
	err      error
}

// Next advances to the next session, fetching the next page when the current
// one is exhausted. It returns false at the end of the listing or on error.
func (it *SessionIterator) Next() bool {
	if it.err != nil {
		return false
	}
	if it.idx+1 < len(it.page) {
		it.idx++
		return true
	}
	if it.done && it.page != nil {
		return false
	}
	page, err := it.c.ListSessionsPage(it.ctx, it.pageSize, it.cursor)
	if err != nil {
		it.err = err
		return false
	}
	it.page, it.idx = page.Sessions, 0
	it.cursor = page.NextCursor
	it.done = page.NextCursor == ""
	if len(it.page) == 0 {
		if it.done {
			return false
		}
		return it.Next()
	}
	return true
}

// Session returns the current session; valid only after a true Next.
func (it *SessionIterator) Session() service.SessionInfo { return it.page[it.idx] }

// Err returns the first error the iterator hit, if any.
func (it *SessionIterator) Err() error { return it.err }

// DeleteSession drops a session in every storage tier.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	req, err := c.newRequest(ctx, http.MethodDelete, "/v2/sessions/"+id, nil)
	if err != nil {
		return err
	}
	return c.doJSON(req, nil)
}

// Snapshot streams a session's self-contained snapshot (family + training
// data + deletion log + provenance). The caller must Close the reader.
func (c *Client) Snapshot(ctx context.Context, id string) (io.ReadCloser, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v2/sessions/"+id+"/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.doRetry(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp.Body, nil
}

// SnapshotTo streams a session's snapshot into w, returning the byte count.
func (c *Client) SnapshotTo(ctx context.Context, id string, w io.Writer) (int64, error) {
	rc, err := c.Snapshot(ctx, id)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	return io.Copy(w, rc)
}

// RestoreSnapshot creates a session from snapshot bytes (a Snapshot stream,
// possibly from another server), replaying its deletion log so honored
// deletions stay deleted.
func (c *Client) RestoreSnapshot(ctx context.Context, snapshot io.Reader) (*service.SessionResponse, error) {
	req, err := c.newRequest(ctx, http.MethodPost, "/v2/sessions", snapshot)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	var sr service.SessionResponse
	if err := c.doJSON(req, &sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

// TenantStats fetches the calling tenant's usage, limits and counters.
func (c *Client) TenantStats(ctx context.Context) (*service.TenantStatsResponse, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v2/tenants/self/stats", nil)
	if err != nil {
		return nil, err
	}
	var ts service.TenantStatsResponse
	if err := c.doJSON(req, &ts); err != nil {
		return nil, err
	}
	return &ts, nil
}

// Meta fetches the server's capability descriptor: version, trainable
// families, feature flags (auth mode, spill tier, what-if plane) and
// effective limits.
func (c *Client) Meta(ctx context.Context) (*service.MetaResponse, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v2/meta", nil)
	if err != nil {
		return nil, err
	}
	var m service.MetaResponse
	if err := c.doJSON(req, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Health fetches the unauthenticated load-balancer probe.
func (c *Client) Health(ctx context.Context) (*service.HealthResponse, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return nil, err
	}
	var h service.HealthResponse
	if err := c.doJSON(req, &h); err != nil {
		return nil, err
	}
	return &h, nil
}
