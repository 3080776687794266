package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/priu/cluster"
	"repro/priu/store"
)

// testFleet is an in-process replica fleet: each node is a full Server over
// its own Tiered store, all sharing one FSBlob, joined by Memberships whose
// probes consult the test's liveness switchboard.
type testFleet struct {
	urls      []string
	listeners []*httptest.Server
	servers   []*Server
	members   []*cluster.Membership
	stores    []*store.Tiered

	mu sync.Mutex
	up map[string]bool
}

func (f *testFleet) setUp(url string, up bool) {
	f.mu.Lock()
	f.up[url] = up
	f.mu.Unlock()
}

func (f *testFleet) probe(_ context.Context, addr string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.up[addr]
}

// newTestFleet boots n replicas. The httptest listeners start before the
// servers exist (the member list needs their URLs), so each delegates through
// an atomically-swapped handler.
func newTestFleet(t *testing.T, n int, probeInterval time.Duration) *testFleet {
	t.Helper()
	bs, err := store.NewFSBlob(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{up: map[string]bool{}}
	handlers := make([]atomic.Value, n)
	for i := 0; i < n; i++ {
		h := &handlers[i]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		f.urls = append(f.urls, ts.URL)
		f.listeners = append(f.listeners, ts)
		f.up[ts.URL] = true
	}
	for i := 0; i < n; i++ {
		ti, err := store.NewTiered(t.TempDir(), store.NewMemory(), store.WithBlobStore(bs))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ti.Close() })
		m, err := cluster.New(cluster.Config{
			Self: f.urls[i], Peers: f.urls,
			ProbeInterval: probeInterval, Probe: f.probe,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		srv := NewServer(WithStore(ti), WithCluster(m))
		handlers[i].Store(srv.Handler())
		f.servers = append(f.servers, srv)
		f.members = append(f.members, m)
		f.stores = append(f.stores, ti)
	}
	return f
}

// noRedirect returns the last response instead of following 307s, so tests
// can observe the fleet's routing decisions directly.
var noRedirect = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

var fleetIDPattern = regexp.MustCompile(`^sess-\d+-[0-9a-f]{4}$`)

func TestFleetCreateAndCrossNodeRead(t *testing.T) {
	f := newTestFleet(t, 3, 0)
	sr := v2Create(t, f.urls[0], v2CreateBody(t, "linear", 80, 4, 1))

	// Fleet members mint node-suffixed IDs they themselves own.
	if !fleetIDPattern.MatchString(sr.SessionID) {
		t.Fatalf("fleet session ID %q lacks the node suffix", sr.SessionID)
	}
	if _, self := f.members[0].Owner(sr.SessionID); !self {
		t.Fatalf("creating node does not own freshly minted %q", sr.SessionID)
	}

	// The session created via node 0 is readable through EVERY node: a
	// redirect-following client sees plain 200s.
	for i := 1; i < len(f.urls); i++ {
		resp, err := http.Get(f.urls[i] + "/v2/sessions/" + sr.SessionID)
		if err != nil {
			t.Fatal(err)
		}
		var got SessionResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || got.SessionID != sr.SessionID {
			t.Fatalf("node %d read: status %d, session %q", i, resp.StatusCode, got.SessionID)
		}
	}

	// Under the hood that read is a 307 to the owner.
	resp, err := noRedirect.Get(f.urls[1] + "/v2/sessions/" + sr.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("non-owner answered %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != f.urls[0]+"/v2/sessions/"+sr.SessionID {
		t.Fatalf("redirect Location = %q", loc)
	}
	if f.servers[1].fleetRedirects.Value() == 0 {
		t.Fatal("redirect not counted")
	}

	// A request already forwarded once is served locally no matter what the
	// ring says — the single-hop loop guard.
	req, _ := http.NewRequest(http.MethodGet, f.urls[1]+"/v2/sessions/"+sr.SessionID, nil)
	req.Header.Set(fleetHopHeader, "test")
	hresp, err := noRedirect.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode == http.StatusTemporaryRedirect {
		t.Fatal("hop-marked request was forwarded a second time")
	}
}

func TestFleetDeletionStreamProxiedToOwner(t *testing.T) {
	f := newTestFleet(t, 2, 0)
	sr := v2Create(t, f.urls[0], v2CreateBody(t, "logistic", 120, 4, 7))

	// Stream deletions through the NON-owner. The piped NDJSON body cannot
	// replay through a redirect, so node 1 must proxy it to node 0, flushing
	// result lines as the owner emits them.
	lines := streamBatches(t, f.urls[1]+"/v2/sessions/"+sr.SessionID+"/deletions", []string{
		`{"remove":[1,2,3]}`,
		`{"remove":[10]}`,
	})
	var last DeletionResult
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Batch != 2 || last.TotalDeleted != 4 {
		t.Fatalf("streamed result %+v", last)
	}
	if f.servers[1].fleetProxied.Value() == 0 {
		t.Fatal("stream was not proxied")
	}

	// The owner holds the applied state.
	resp, err := http.Get(f.urls[0] + "/v2/sessions/" + sr.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.TotalDeleted != 4 {
		t.Fatalf("owner shows %d deletions, want 4", got.TotalDeleted)
	}
}

func TestFleetV1DeleteScatterGather(t *testing.T) {
	f := newTestFleet(t, 2, 0)
	srA := v2Create(t, f.urls[0], v2CreateBody(t, "linear", 80, 4, 1))
	srB := v2Create(t, f.urls[1], v2CreateBody(t, "linear", 80, 4, 2))

	// One batch mixing a local session, a peer-owned session, and a miss:
	// node 0 splits it per owner and merges results in request order.
	var out BatchDeleteResponse
	resp := postJSON(t, f.urls[0]+"/v1/delete", DeleteRequest{Batch: []DeleteItem{
		{SessionID: srA.SessionID, Removed: []int{1}},
		{SessionID: srB.SessionID, Removed: []int{2, 3}},
		{SessionID: "sess-nope", Removed: []int{4}},
	}}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	for i, id := range []string{srA.SessionID, srB.SessionID} {
		r := out.Results[i]
		if r.SessionID != id || r.Error != "" || r.Result == nil {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	if out.Results[1].Result.TotalDeleted != 2 {
		t.Fatalf("peer-owned item applied %d deletions, want 2", out.Results[1].Result.TotalDeleted)
	}
	if out.Results[2].Error == "" {
		t.Fatal("missing session did not error per-item")
	}

	// A single-session v1 delete addressed to the wrong node forwards whole.
	var dr DeleteResponse
	resp2 := postJSON(t, f.urls[0]+"/v1/delete", DeleteRequest{SessionID: srB.SessionID, Removed: []int{7}}, &dr)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("forwarded single delete status %d", resp2.StatusCode)
	}
	if dr.SessionID != srB.SessionID || dr.TotalDeleted != 3 {
		t.Fatalf("forwarded delete response %+v", dr)
	}

	// The owner's rejection of a forwarded single-session delete keeps its
	// status and flat message: out of range is a 400, unknown a 404.
	flatDelete := func(base string, req DeleteRequest) (int, string) {
		t.Helper()
		buf, _ := json.Marshal(req)
		resp, err := http.Post(base+"/v1/delete", "application/json", strings.NewReader(string(buf)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var flat map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&flat)
		return resp.StatusCode, flat["error"]
	}
	unknownAt1 := ""
	for i := 0; unknownAt1 == ""; i++ {
		if id := fmt.Sprintf("sess-nope-%d", i); !fleetOwns(f.members[0], id) {
			unknownAt1 = id
		}
	}
	for _, c := range []struct {
		req    DeleteRequest
		status int
	}{
		{DeleteRequest{SessionID: srB.SessionID, Removed: []int{999}}, http.StatusBadRequest},
		{DeleteRequest{SessionID: unknownAt1, Removed: []int{1}}, http.StatusNotFound},
	} {
		viaStatus, viaMsg := flatDelete(f.urls[0], c.req)
		ownStatus, ownMsg := flatDelete(f.urls[1], c.req)
		if viaStatus != c.status || ownStatus != c.status || viaMsg == "" || viaMsg != ownMsg {
			t.Fatalf("forwarded %+v: %d %q, at the owner %d %q, want %d and the owner's message",
				c.req, viaStatus, viaMsg, ownStatus, ownMsg, c.status)
		}
	}

	// With the owner's server stopped, a single delete is a 502 and a mixed
	// batch reports the item per item while its local item still commits.
	// The liveness probe still answers for the stopped node, so the first
	// forward's demotion is undone before the batch runs.
	g := newTestFleet(t, 2, 20*time.Millisecond)
	gA := v2Create(t, g.urls[0], v2CreateBody(t, "linear", 80, 4, 3))
	gB := v2Create(t, g.urls[1], v2CreateBody(t, "linear", 80, 4, 4))
	g.listeners[1].Close()
	if status, msg := flatDelete(g.urls[0], DeleteRequest{SessionID: gB.SessionID, Removed: []int{1}}); status != http.StatusBadGateway || msg == "" {
		t.Fatalf("delete for a stopped owner: %d %q, want 502", status, msg)
	}
	waitFor(t, "the stopped owner's re-admission", func() bool { return !fleetOwns(g.members[0], gB.SessionID) })
	var mixed BatchDeleteResponse
	if resp := postJSON(t, g.urls[0]+"/v1/delete", DeleteRequest{Batch: []DeleteItem{
		{SessionID: gA.SessionID, Removed: []int{1}},
		{SessionID: gB.SessionID, Removed: []int{2}},
	}}, &mixed); resp.StatusCode != http.StatusOK || len(mixed.Results) != 2 {
		t.Fatalf("mixed batch with a stopped owner: status %d, %+v", resp.StatusCode, mixed.Results)
	}
	if r := mixed.Results[0]; r.Error != "" || r.Result == nil || r.Result.TotalDeleted != 1 {
		t.Fatalf("local item with a stopped peer: %+v", r)
	}
	if r := mixed.Results[1]; r.Error == "" || r.Result != nil {
		t.Fatalf("item for a stopped owner: %+v, want a per-item error", r)
	}
}

// fleetOwns reports whether m's node owns the anonymous tenant's session id.
func fleetOwns(m *cluster.Membership, id string) bool {
	_, self := m.Owner(id)
	return self
}

func TestFleetMetaAndStatsExposeCluster(t *testing.T) {
	f := newTestFleet(t, 2, 0)
	resp, err := http.Get(f.urls[0] + "/v2/meta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr MetaResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if !mr.Features.Fleet || !mr.Features.Blob {
		t.Fatalf("features = %+v, want fleet and blob advertised", mr.Features)
	}
	if mr.Cluster == nil {
		t.Fatal("meta lacks the cluster block")
	}
	if mr.Cluster.Node != f.urls[0] || len(mr.Cluster.Peers) != 2 ||
		len(mr.Cluster.Alive) != 2 || mr.Cluster.RingVersion == 0 {
		t.Fatalf("cluster block = %+v", mr.Cluster)
	}

	sresp, err := http.Get(f.urls[1] + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Node != f.urls[1] || len(st.FleetAlive) != 2 {
		t.Fatalf("stats fleet block: node=%q alive=%v", st.Node, st.FleetAlive)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFleetHandoffOnMembershipChange(t *testing.T) {
	f := newTestFleet(t, 2, 50*time.Millisecond)
	a, b := f.urls[0], f.urls[1]
	full := cluster.NewRing(1, f.urls)

	// Partition: node B sees A dead, so B owns the whole key space and
	// accepts every session it mints.
	f.setUp(a, false)
	f.members[1].ReportFailure(a)

	// Create sessions through B until at least one belongs to A under the
	// full ring — the session that must migrate when the partition heals.
	var moved, stays string
	for i := 0; i < 32 && (moved == "" || stays == ""); i++ {
		id := v2Create(t, b, v2CreateBody(t, "linear", 60, 4, int64(i+1))).SessionID
		if owner, _ := full.Owner(id); owner == a {
			moved = id
		} else {
			stays = id
		}
	}
	if moved == "" || stays == "" {
		t.Fatal("32 draws never split across both nodes; the ring is broken")
	}

	// Heal the partition. B's prober revives A, the ring change fires the
	// handoff, and B drains the sessions it no longer owns to the blob tier.
	f.setUp(a, true)
	waitFor(t, "handoff release", func() bool { return f.servers[1].fleetReleased.Value() > 0 })
	if f.servers[1].fleetHandoffs.Value() == 0 {
		t.Fatal("membership change never triggered a handoff")
	}

	// B now redirects for the migrated session instead of serving it...
	resp, err := noRedirect.Get(b + "/v2/sessions/" + moved)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("post-handoff read via old owner: %d, want 307", resp.StatusCode)
	}
	// ...while A restores it lazily from the blob tier on first touch.
	aresp, err := http.Get(a + "/v2/sessions/" + moved)
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	var got SessionResponse
	if err := json.NewDecoder(aresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if aresp.StatusCode != http.StatusOK || got.SessionID != moved || len(got.Parameters) == 0 {
		t.Fatalf("new owner read: status %d, %+v", aresp.StatusCode, got)
	}
	// Sessions B still owns never moved.
	sresp, err := noRedirect.Get(b + "/v2/sessions/" + stays)
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("B-owned session after handoff: %d, want 200", sresp.StatusCode)
	}
}

func TestCreateUnderResidentPressureIs503(t *testing.T) {
	// Size the resident budget off a probe session so exactly one fits.
	probeTS := newTestServerOpts(t)
	probe := v2Create(t, probeTS.URL, v2CreateBody(t, "linear", 80, 4, 1))
	if probe.FootprintBytes <= 0 {
		t.Fatal("probe session has no footprint")
	}

	mem := store.NewMemory(store.WithMaxBytes(probe.FootprintBytes + probe.FootprintBytes/2))
	ts := newTestServerOpts(t, WithStore(mem))
	first := v2Create(t, ts.URL, v2CreateBody(t, "linear", 80, 4, 1))

	// Pin the only resident session, as an in-flight snapshot export or
	// what-if stream would.
	sess, ok := mem.Get(first.SessionID)
	if !ok {
		t.Fatal("created session not resident")
	}
	sess.Pin()

	// The budget is exhausted and every evictable session is pinned: the
	// registration is transient backpressure, not a quota violation.
	body, err := json.Marshal(v2CreateBody(t, "linear", 80, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v2/sessions", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pinned-solid create status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
	if env := decodeEnvelope(t, resp.Body); env.Error.Code != ErrCodeResidentPressure {
		t.Fatalf("error code %q, want %q", env.Error.Code, ErrCodeResidentPressure)
	}
	resp.Body.Close()

	// The v1 path reports the same backpressure in its flat shape.
	v1resp := postJSON(t, ts.URL+"/v1/train", trainBody(t, "linear", 80, 4, 3), nil)
	if v1resp.StatusCode != http.StatusServiceUnavailable || v1resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("v1 train status %d (Retry-After %q)", v1resp.StatusCode, v1resp.Header.Get("Retry-After"))
	}

	// Releasing the pin releases the pressure.
	sess.Unpin()
	second := v2Create(t, ts.URL, v2CreateBody(t, "linear", 80, 4, 2))
	if second.SessionID == "" {
		t.Fatal("create after unpin failed")
	}
}
