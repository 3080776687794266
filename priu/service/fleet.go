package service

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"

	"repro/priu/cluster"
	"repro/priu/obs"
	"repro/priu/store"
)

// The fleet layer: N priuserve replicas share a blob spill tier
// (store.WithBlobStore) and agree on session placement through rendezvous
// hashing over (tenant-namespaced) session IDs. Each replica serves the
// sessions it owns and routes everything else to the owner — a 307 redirect
// for body-less requests and a transparent streaming proxy for the NDJSON
// deletion and what-if streams (whose piped request bodies cannot be
// replayed through a redirect). Session IDs minted by a fleet member carry a
// node-derived suffix so concurrently-creating replicas never collide, and a
// membership change triggers a handoff: sessions this node no longer owns are
// certified into the blob tier and forgotten locally, for the new owner to
// restore lazily on first touch.

// fleetHopHeader marks a request already forwarded once by a fleet member.
// The receiver serves it locally no matter what its own ring says, so two
// nodes that briefly disagree on the alive set degrade to one extra hop
// instead of a redirect loop.
const fleetHopHeader = "X-Priu-Fleet-Hop"

// WithCluster joins the server to a replica fleet: requests for sessions
// owned by other members are routed to them, session IDs are minted
// fleet-unique, and membership changes hand non-owned sessions off through
// the shared blob tier. The store should be a tiered store built with
// store.WithBlobStore so any replica can restore any session.
func WithCluster(m *cluster.Membership) ServerOption {
	return func(s *Server) { s.cluster = m }
}

// nodeSuffix derives the 4-hex-digit session-ID suffix from a node's
// advertised URL, so IDs minted by different replicas never collide even
// when their counters agree.
func nodeSuffix(addr string) string {
	h := fnv.New32a()
	h.Write([]byte(addr))
	return fmt.Sprintf("%04x", h.Sum32()&0xffff)
}

// newSessionID mints the storage ID for a new session. A fleet member loops
// until it draws an ID it owns, so a session is always created on its owner
// and no cross-node create forwarding is needed; with N replicas the loop
// terminates in N expected draws.
func (s *Server) newSessionID(ten *Tenant) string {
	if s.cluster == nil {
		return ten.storeID(fmt.Sprintf("sess-%d", s.nextID.Add(1)))
	}
	var id string
	for i := 0; i < 4096; i++ {
		id = ten.storeID(fmt.Sprintf("sess-%d-%s", s.nextID.Add(1), s.nodeSuffix))
		if _, self := s.cluster.Owner(id); self {
			return id
		}
	}
	// 4096 consecutive foreign draws cannot happen on a healthy ring; keep
	// the last ID and serve it locally — the next handoff migrates it.
	return id
}

// fleetSessionRoute extracts the wire session ID a request addresses, and
// whether the route streams its request body (and so must be proxied rather
// than redirected). Routes that address no single session return "".
func fleetSessionRoute(r *http.Request) (wireID string, stream bool) {
	if rest, ok := strings.CutPrefix(r.URL.Path, "/v2/sessions/"); ok {
		id, sub, _ := strings.Cut(rest, "/")
		return id, sub == "deletions" || sub == "whatif"
	}
	if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/model/"); ok {
		return rest, false
	}
	return "", false
}

// withFleet wraps the route mux with ownership routing. It runs inside the
// auth middleware (tenant resolution decides the storage ID being placed)
// and outside the mux (routing must happen before a local handler touches
// the store, or a read-through would adopt a session this node doesn't own).
func (s *Server) withFleet(next http.Handler) http.Handler {
	if s.cluster == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(fleetHopHeader) != "" {
			next.ServeHTTP(w, r) // single-hop guard: never forward twice
			return
		}
		wireID, stream := fleetSessionRoute(r)
		if wireID == "" {
			// Creation, listings, stats, meta, health: always local. So are
			// deletes that name their sessions in the body; their handler
			// routes item by item.
			next.ServeHTTP(w, r)
			return
		}
		owner, self := s.cluster.Owner(tenantFor(r).storeID(wireID))
		if self {
			next.ServeHTTP(w, r)
			return
		}
		if stream {
			s.proxyTo(w, r, owner)
			return
		}
		// Body-less (or replayable) request: hand the client the owner's
		// address and let it re-issue. Go clients follow 307 transparently.
		s.fleetRedirects.Add(1)
		w.Header().Set("Location", owner+r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect)
	})
}

// proxyTo streams a request to the owning peer and its response back,
// flushing every write so NDJSON result lines reach the client as the owner
// emits them. A transport-level failure demotes the peer immediately
// (failover does not wait for the next probe) and reports a typed 502.
func (s *Server) proxyTo(w http.ResponseWriter, r *http.Request, owner string) {
	target, err := url.Parse(owner)
	if err != nil {
		writeV2Error(w, http.StatusBadGateway, ErrCodePeerUnavailable,
			"session owner %q is not a valid peer URL: %v", owner, err)
		return
	}
	s.fleetProxied.Add(1)
	// The deletions stream is full-duplex: the owner answers each batch
	// while the client is still streaming the next, so the inbound side
	// must allow concurrent body reads and response writes too.
	_ = http.NewResponseController(w).EnableFullDuplex()
	rp := &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(target)
			pr.Out.Header.Set(fleetHopHeader, s.cluster.Self())
			// The trace ID minted by withObs rides on the inbound headers, so
			// the owner's span tree lands under the same X-Priu-Trace ID.
		},
		ModifyResponse: func(resp *http.Response) error {
			// withObs already put the trace ID on the client response; drop the
			// peer's echo so the header is not duplicated.
			resp.Header.Del(obs.TraceHeader)
			return nil
		},
		FlushInterval: -1,
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			s.cluster.ReportFailure(owner)
			writeV2Error(w, http.StatusBadGateway, ErrCodePeerUnavailable,
				"forwarding to session owner %s: %v", owner, err)
		},
	}
	rp.ServeHTTP(w, r)
}

// handoff reacts to a membership change: locally-held sessions whose owner
// is now another node are certified into the shared blob tier and forgotten
// here, so the new owner's first touch restores them (deletion log intact).
// One release runs at a time; a change arriving mid-release queues exactly
// one re-run, so the final ring always gets a pass.
func (s *Server) handoff() {
	tb, ok := s.st.(*store.Tiered)
	if !ok || s.cluster == nil {
		return
	}
	if !s.handoffActive.CompareAndSwap(false, true) {
		s.handoffRerun.Store(true)
		return
	}
	go func() {
		defer s.handoffActive.Store(false)
		for {
			s.fleetHandoffs.Add(1)
			n, err := tb.ReleaseUnowned(func(id string) bool {
				_, self := s.cluster.Owner(id)
				return self
			})
			s.fleetReleased.Add(int64(n))
			// A per-session release failure keeps that session local and
			// served here until the next membership change retries; the
			// error is visible as blob_errors in /v1/stats.
			_ = err
			if !s.handoffRerun.CompareAndSwap(true, false) {
				return
			}
		}
	}()
}
