package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/priu/store"
)

// writeKeyFile writes a tenant key file and returns its path.
func writeKeyFile(t *testing.T, tenants ...TenantConfig) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys.json")
	buf, err := json.Marshal(map[string]any{"tenants": tenants})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// newAuthServer builds an authenticated test server whose store enforces the
// keyring's tenant limits (exactly how cmd/priuserve wires it).
func newAuthServer(t *testing.T, mode AuthMode, opts []ServerOption, tenants ...TenantConfig) (*httptest.Server, *Keyring) {
	t.Helper()
	kr, err := LoadKeyring(writeKeyFile(t, tenants...))
	if err != nil {
		t.Fatal(err)
	}
	opts = append(opts, WithAuth(mode, kr))
	ts := httptest.NewServer(NewServer(opts...).Handler())
	t.Cleanup(ts.Close)
	return ts, kr
}

// doAuthed sends a request with an optional bearer key.
func doAuthed(t *testing.T, method, url, key string, body io.Reader, contentType string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// v2CreateAs creates a session with a key and returns the response.
func v2CreateAs(t *testing.T, baseURL, key string, req CreateSessionRequest) (SessionResponse, *http.Response) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp := doAuthed(t, http.MethodPost, baseURL+"/v2/sessions", key, strings.NewReader(string(buf)), "application/json")
	defer resp.Body.Close()
	var sr SessionResponse
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return sr, resp
}

func TestAuthRequiredRejectsMissingAndUnknownKeys(t *testing.T) {
	ts, _ := newAuthServer(t, AuthRequired, nil,
		TenantConfig{Name: "alice", Key: "ak_alice"})

	// Every /v2 route rejects a missing key with the typed 401 envelope.
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v2/sessions"},
		{http.MethodGet, "/v2/sessions"},
		{http.MethodGet, "/v2/sessions/sess-1"},
		{http.MethodDelete, "/v2/sessions/sess-1"},
		{http.MethodGet, "/v2/sessions/sess-1/snapshot"},
		{http.MethodPost, "/v2/sessions/sess-1/deletions"},
		{http.MethodGet, "/v2/tenants/self/stats"},
	} {
		resp := doAuthed(t, probe.method, ts.URL+probe.path, "", strings.NewReader("{}"), "application/json")
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("%s %s without key: status %d, want 401", probe.method, probe.path, resp.StatusCode)
		}
		if got := resp.Header.Get("WWW-Authenticate"); !strings.HasPrefix(got, "Bearer") {
			t.Fatalf("%s %s WWW-Authenticate = %q", probe.method, probe.path, got)
		}
		env := decodeEnvelope(t, resp.Body)
		resp.Body.Close()
		if env.Error.Code != ErrCodeUnauthorized {
			t.Fatalf("%s %s error code %q, want %q", probe.method, probe.path, env.Error.Code, ErrCodeUnauthorized)
		}
	}

	// Unknown keys are rejected too.
	resp := doAuthed(t, http.MethodGet, ts.URL+"/v2/sessions", "ak_wrong", nil, "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key status %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()

	// v1 is governed by the same mode, in its flat error shape.
	resp = doAuthed(t, http.MethodGet, ts.URL+"/v1/sessions", "", nil, "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("v1 without key status %d, want 401", resp.StatusCode)
	}
	var flat map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&flat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, isString := flat["error"].(string); !isString {
		t.Fatalf("v1 401 shape %v, want flat string error", flat)
	}

	// /healthz stays open for load balancers.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d under auth=required", hresp.StatusCode)
	}

	// A valid key proceeds.
	resp = doAuthed(t, http.MethodGet, ts.URL+"/v2/sessions", "ak_alice", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid key status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestAuthOptionalAdmitsAnonymousRejectsBadKeys(t *testing.T) {
	ts, _ := newAuthServer(t, AuthOptional, nil, TenantConfig{Name: "alice", Key: "ak_alice"})
	// Anonymous callers work (wire-compatible v1).
	var tr TrainResponse
	resp := postJSON(t, ts.URL+"/v1/train", trainBody(t, "linear", 50, 3, 1), &tr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous v1 train status %d", resp.StatusCode)
	}
	// A presented-but-unknown key is still rejected (no silent fallback).
	bresp := doAuthed(t, http.MethodGet, ts.URL+"/v2/sessions", "ak_bogus", nil, "")
	if bresp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bogus key under optional: status %d, want 401", bresp.StatusCode)
	}
	bresp.Body.Close()
}

func TestTenantIsolation(t *testing.T) {
	ts, _ := newAuthServer(t, AuthRequired, nil,
		TenantConfig{Name: "alice", Key: "ak_alice"},
		TenantConfig{Name: "bob", Key: "ak_bob"})

	sr, resp := v2CreateAs(t, ts.URL, "ak_alice", v2CreateBody(t, "linear", 60, 3, 5))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("alice create status %d", resp.StatusCode)
	}

	// Bob cannot see, snapshot, stream to, or delete alice's session.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v2/sessions/" + sr.SessionID},
		{http.MethodGet, "/v2/sessions/" + sr.SessionID + "/snapshot"},
		{http.MethodPost, "/v2/sessions/" + sr.SessionID + "/deletions"},
		{http.MethodDelete, "/v2/sessions/" + sr.SessionID},
	} {
		bresp := doAuthed(t, probe.method, ts.URL+probe.path, "ak_bob", strings.NewReader(`{"remove":[1]}`), "application/x-ndjson")
		if bresp.StatusCode != http.StatusNotFound {
			t.Fatalf("bob %s %s: status %d, want 404", probe.method, probe.path, bresp.StatusCode)
		}
		bresp.Body.Close()
	}
	// Bob cannot smuggle a namespace separator through a v1 path or body.
	mresp := doAuthed(t, http.MethodGet, ts.URL+"/v1/model/alice/"+sr.SessionID, "ak_bob", nil, "")
	if mresp.StatusCode != http.StatusNotFound {
		t.Fatalf("bob cross-namespace v1 model: status %d, want 404", mresp.StatusCode)
	}
	mresp.Body.Close()
	dresp := doAuthed(t, http.MethodPost, ts.URL+"/v1/delete", "ak_bob",
		strings.NewReader(fmt.Sprintf(`{"session_id":"alice/%s","removed":[1]}`, sr.SessionID)), "application/json")
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("bob cross-namespace v1 delete: status %d, want 404", dresp.StatusCode)
	}
	dresp.Body.Close()

	// Listings are scoped: bob sees nothing, alice sees her session.
	for _, c := range []struct {
		key  string
		want int
	}{{"ak_bob", 0}, {"ak_alice", 1}} {
		lresp := doAuthed(t, http.MethodGet, ts.URL+"/v2/sessions", c.key, nil, "")
		var page SessionListResponse
		if err := json.NewDecoder(lresp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		lresp.Body.Close()
		if len(page.Sessions) != c.want {
			t.Fatalf("%s sees %d sessions, want %d", c.key, len(page.Sessions), c.want)
		}
	}

	// Both tenants can reuse the same wire ID space without collisions:
	// alice's sess-N and bob's sess-M are distinct storage keys.
	brS, bresp := v2CreateAs(t, ts.URL, "ak_bob", v2CreateBody(t, "linear", 60, 3, 6))
	if bresp.StatusCode != http.StatusCreated {
		t.Fatalf("bob create status %d", bresp.StatusCode)
	}
	// Alice's view of bob's ID is not found.
	aresp := doAuthed(t, http.MethodGet, ts.URL+"/v2/sessions/"+brS.SessionID, "ak_alice", nil, "")
	if aresp.StatusCode != http.StatusNotFound {
		t.Fatalf("alice GET bob's session: status %d, want 404", aresp.StatusCode)
	}
	aresp.Body.Close()

	// Alice deletes her own session fine.
	delResp := doAuthed(t, http.MethodDelete, ts.URL+"/v2/sessions/"+sr.SessionID, "ak_alice", nil, "")
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("alice delete own session: status %d", delResp.StatusCode)
	}
	delResp.Body.Close()
}

func TestV2MethodNotAllowed(t *testing.T) {
	ts := newTestServerOpts(t)
	cases := []struct {
		method, path, wantAllow string
	}{
		{http.MethodPut, "/v2/sessions", "GET, POST"},
		{http.MethodPatch, "/v2/sessions/sess-1", "DELETE, GET"},
		{http.MethodPost, "/v2/sessions/sess-1/snapshot", "GET"},
		{http.MethodGet, "/v2/sessions/sess-1/deletions", "POST"},
		{http.MethodDelete, "/v2/tenants/self/stats", "GET"},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.wantAllow {
			t.Fatalf("%s %s: Allow %q, want %q", c.method, c.path, got, c.wantAllow)
		}
		env := decodeEnvelope(t, resp.Body)
		resp.Body.Close()
		if env.Error.Code != ErrCodeMethodNotAllowed {
			t.Fatalf("%s %s: error code %q, want %q", c.method, c.path, env.Error.Code, ErrCodeMethodNotAllowed)
		}
	}

	// HEAD rides on GET (as the previous ServeMux method patterns allowed):
	// probes against GET routes must not start returning 405.
	hreq, _ := http.NewRequest(http.MethodHead, ts.URL+"/v2/sessions", nil)
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD /v2/sessions: status %d, want 200", hresp.StatusCode)
	}
}

func TestTenantQuota(t *testing.T) {
	ts, _ := newAuthServer(t, AuthRequired, nil,
		TenantConfig{Name: "alice", Key: "ak_alice", MaxSessions: 2},
		TenantConfig{Name: "bob", Key: "ak_bob"})

	var ids []string
	for i := 0; i < 2; i++ {
		sr, resp := v2CreateAs(t, ts.URL, "ak_alice", v2CreateBody(t, "linear", 50, 3, int64(10+i)))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("alice create %d status %d", i, resp.StatusCode)
		}
		ids = append(ids, sr.SessionID)
	}
	// The third create is a typed 429, and nothing was evicted to make room.
	_, resp := v2CreateAs(t, ts.URL, "ak_alice", v2CreateBody(t, "linear", 50, 3, 12))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota create status %d, want 429", resp.StatusCode)
	}
	for _, id := range ids {
		gr := doAuthed(t, http.MethodGet, ts.URL+"/v2/sessions/"+id, "ak_alice", nil, "")
		if gr.StatusCode != http.StatusOK {
			t.Fatalf("session %s lost after quota rejection: status %d", id, gr.StatusCode)
		}
		gr.Body.Close()
	}
	// Another tenant proceeds while alice is at quota.
	if _, bresp := v2CreateAs(t, ts.URL, "ak_bob", v2CreateBody(t, "linear", 50, 3, 13)); bresp.StatusCode != http.StatusCreated {
		t.Fatalf("bob create while alice at quota: status %d", bresp.StatusCode)
	}
	// v1 trains hit the same quota (flat 429).
	trResp := doAuthed(t, http.MethodPost, ts.URL+"/v1/train", "ak_alice",
		jsonBody(t, trainBody(t, "linear", 50, 3, 14)), "application/json")
	if trResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("v1 over-quota train status %d, want 429", trResp.StatusCode)
	}
	trResp.Body.Close()
	// Deleting a session frees quota.
	delResp := doAuthed(t, http.MethodDelete, ts.URL+"/v2/sessions/"+ids[0], "ak_alice", nil, "")
	delResp.Body.Close()
	if _, cresp := v2CreateAs(t, ts.URL, "ak_alice", v2CreateBody(t, "linear", 50, 3, 15)); cresp.StatusCode != http.StatusCreated {
		t.Fatalf("create after freeing quota: status %d", cresp.StatusCode)
	}

	// The envelope carried the typed code.
	_, resp2 := v2CreateAs(t, ts.URL, "ak_alice", v2CreateBody(t, "linear", 50, 3, 16))
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("re-probe status %d", resp2.StatusCode)
	}
}

// jsonBody marshals a value for doAuthed.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return strings.NewReader(string(buf))
}

func TestTenantQuotaEnvelopeCode(t *testing.T) {
	ts, _ := newAuthServer(t, AuthRequired, nil,
		TenantConfig{Name: "alice", Key: "ak_alice", MaxSessions: 1})
	if _, resp := v2CreateAs(t, ts.URL, "ak_alice", v2CreateBody(t, "linear", 50, 3, 1)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	buf, _ := json.Marshal(v2CreateBody(t, "linear", 50, 3, 2))
	resp := doAuthed(t, http.MethodPost, ts.URL+"/v2/sessions", "ak_alice", strings.NewReader(string(buf)), "application/json")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp.Body); env.Error.Code != ErrCodeQuota {
		t.Fatalf("error code %q, want %q", env.Error.Code, ErrCodeQuota)
	}
}

// TestConcurrentTenantQuotaIsolation registers sessions from two tenants in
// parallel: neither tenant may exceed its own quota, and no tenant's
// registrations may evict the other's residents (there is no global budget,
// so evictions must stay zero). Run under -race.
func TestConcurrentTenantQuotaIsolation(t *testing.T) {
	const quota = 3
	ts, _ := newAuthServer(t, AuthRequired, nil,
		TenantConfig{Name: "alice", Key: "ak_alice", MaxSessions: quota},
		TenantConfig{Name: "bob", Key: "ak_bob", MaxSessions: quota})

	keys := []string{"ak_alice", "ak_bob"}
	const attempts = 8
	created := make([][]string, 2)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ti := range keys {
		for a := 0; a < attempts; a++ {
			wg.Add(1)
			go func(ti, a int) {
				defer wg.Done()
				sr, resp := v2CreateAs(t, ts.URL, keys[ti], v2CreateBody(t, "linear", 40, 3, int64(ti*100+a)))
				switch resp.StatusCode {
				case http.StatusCreated:
					mu.Lock()
					created[ti] = append(created[ti], sr.SessionID)
					mu.Unlock()
				case http.StatusTooManyRequests:
					// expected past the quota
				default:
					t.Errorf("tenant %d create %d: unexpected status %d", ti, a, resp.StatusCode)
				}
			}(ti, a)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for ti, key := range keys {
		if len(created[ti]) != quota {
			t.Fatalf("tenant %d created %d sessions, want exactly %d", ti, len(created[ti]), quota)
		}
		// Every successful registration is still alive: the other tenant's
		// traffic never evicted it.
		for _, id := range created[ti] {
			gr := doAuthed(t, http.MethodGet, ts.URL+"/v2/sessions/"+id, key, nil, "")
			if gr.StatusCode != http.StatusOK {
				t.Fatalf("tenant %d session %s: status %d, want 200", ti, id, gr.StatusCode)
			}
			gr.Body.Close()
		}
	}
	// No budget evictions anywhere (quota rejects, never evicts).
	var stats StatsResponse
	sresp := doAuthed(t, http.MethodGet, ts.URL+"/v1/stats", "ak_alice", nil, "")
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Evictions != 0 {
		t.Fatalf("quota enforcement evicted %d sessions; quotas must reject instead", stats.Evictions)
	}
	if stats.Sessions != 2*quota {
		t.Fatalf("resident sessions %d, want %d", stats.Sessions, 2*quota)
	}
}

// streamBatchesAs is streamBatches with an API key.
func streamBatchesAs(t *testing.T, url, key string, batches []string) []string {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		done <- result{resp, err}
	}()
	if _, err := io.WriteString(pw, batches[0]+"\n"); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer res.resp.Body.Close()
	if res.resp.StatusCode != http.StatusOK {
		t.Fatalf("deletions stream status %d", res.resp.StatusCode)
	}
	reader := newLineReader(res.resp.Body)
	var lines []string
	for i := range batches {
		line, err := reader()
		if err != nil {
			t.Fatalf("reading response line %d: %v", i+1, err)
		}
		lines = append(lines, line)
		if i+1 < len(batches) {
			if _, err := io.WriteString(pw, batches[i+1]+"\n"); err != nil {
				t.Fatal(err)
			}
		}
	}
	pw.Close()
	return lines
}

// newLineReader returns a closure reading one trimmed NDJSON line per call.
func newLineReader(r io.Reader) func() (string, error) {
	br := bufio.NewReader(r)
	return func() (string, error) {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", err
		}
		return strings.TrimSpace(line), nil
	}
}

// TestTenantRateLimitStreamResumes drives a throttled deletions stream: a
// batch over the remaining tokens gets a typed rate_limited line with
// retry_after_seconds, and resending the same batch after waiting succeeds —
// the stream itself survives the throttle.
func TestTenantRateLimitStreamResumes(t *testing.T) {
	// 20 rows/s with a burst of 4: the first 4-row batch drains the bucket;
	// the next needs 150ms of refill — slow enough that local HTTP round
	// trips (~1ms) cannot race the bucket back to full.
	ts, _ := newAuthServer(t, AuthRequired, nil,
		TenantConfig{Name: "alice", Key: "ak_alice", DeletionRowsPerSec: 20, Burst: 4})
	sr, resp := v2CreateAs(t, ts.URL, "ak_alice", v2CreateBody(t, "linear", 120, 4, 7))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	url := ts.URL + "/v2/sessions/" + sr.SessionID + "/deletions"

	lines := streamBatchesAs(t, url, "ak_alice", []string{
		`{"remove":[1,2,3,4]}`, // drains the burst
		`{"remove":[5,6,7]}`,   // throttled: needs refill
	})
	var r1 DeletionResult
	if err := json.Unmarshal([]byte(lines[0]), &r1); err != nil {
		t.Fatal(err)
	}
	if r1.TotalDeleted != 4 {
		t.Fatalf("batch 1 %+v", r1)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal([]byte(lines[1]), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != ErrCodeRateLimited {
		t.Fatalf("throttled batch code %q, want %q", env.Error.Code, ErrCodeRateLimited)
	}
	if env.Error.RetryAfterSeconds <= 0 {
		t.Fatalf("throttled batch retry_after_seconds = %v, want > 0", env.Error.RetryAfterSeconds)
	}

	// Wait out the advertised Retry-After plus refill slack, then resume on
	// a fresh stream: the same batch must now be admitted.
	time.Sleep(time.Duration(env.Error.RetryAfterSeconds*float64(time.Second)) + 50*time.Millisecond)
	lines = streamBatchesAs(t, url, "ak_alice", []string{`{"remove":[5,6,7]}`})
	var r2 DeletionResult
	if err := json.Unmarshal([]byte(lines[0]), &r2); err != nil {
		t.Fatal(err)
	}
	if r2.TotalDeleted != 7 {
		t.Fatalf("resumed batch %+v, want total_deleted 7", r2)
	}

	// A batch larger than the burst can never pass: typed batch_too_large.
	lines = streamBatchesAs(t, url, "ak_alice", []string{`{"remove":[10,11,12,13,14]}`})
	if err := json.Unmarshal([]byte(lines[0]), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != ErrCodeBatchTooLarge {
		t.Fatalf("over-burst batch code %q, want %q", env.Error.Code, ErrCodeBatchTooLarge)
	}

	// An exhausted bucket rejects the stream open with HTTP 429 + Retry-After.
	time.Sleep(250 * time.Millisecond) // refill to the full burst first
	drain := streamBatchesAs(t, url, "ak_alice", []string{`{"remove":[20,21,22,23]}`})
	var r3 DeletionResult
	if err := json.Unmarshal([]byte(drain[0]), &r3); err != nil || r3.Removed != 4 {
		t.Fatalf("drain batch %v %v", drain[0], err)
	}
	oresp := doAuthed(t, http.MethodPost, url, "ak_alice", strings.NewReader(""), "application/x-ndjson")
	defer oresp.Body.Close()
	if oresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted-bucket open status %d, want 429", oresp.StatusCode)
	}
	if oresp.Header.Get("Retry-After") == "" {
		t.Fatal("429 open missing Retry-After header")
	}
	if env := decodeEnvelope(t, oresp.Body); env.Error.Code != ErrCodeRateLimited {
		t.Fatalf("429 open code %q", env.Error.Code)
	}

	// v1 deletes pay the same bucket. On the still-empty bucket a single
	// delete is a flat 429 + Retry-After and a batch item reports the
	// throttle per item; a delete over the burst is a 400.
	v1resp := doAuthed(t, http.MethodPost, ts.URL+"/v1/delete", "ak_alice",
		jsonBody(t, DeleteRequest{SessionID: sr.SessionID, Removed: []int{30, 31, 32}}), "application/json")
	var flat struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(v1resp.Body).Decode(&flat); err != nil {
		t.Fatal(err)
	}
	v1resp.Body.Close()
	if v1resp.StatusCode != http.StatusTooManyRequests || v1resp.Header.Get("Retry-After") == "" || flat.Error == "" {
		t.Fatalf("throttled v1 delete: status %d, Retry-After %q, body %v", v1resp.StatusCode, v1resp.Header.Get("Retry-After"), flat)
	}
	bresp := doAuthed(t, http.MethodPost, ts.URL+"/v1/delete", "ak_alice",
		jsonBody(t, DeleteRequest{Batch: []DeleteItem{{SessionID: sr.SessionID, Removed: []int{33, 34, 35}}}}), "application/json")
	var br BatchDeleteResponse
	if err := json.NewDecoder(bresp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK || len(br.Results) != 1 || br.Results[0].Result != nil ||
		!strings.Contains(br.Results[0].Error, "rate limit") {
		t.Fatalf("throttled v1 batch item: status %d, %+v", bresp.StatusCode, br.Results)
	}
	big := doAuthed(t, http.MethodPost, ts.URL+"/v1/delete", "ak_alice",
		jsonBody(t, DeleteRequest{SessionID: sr.SessionID, Removed: []int{40, 41, 42, 43, 44}}), "application/json")
	big.Body.Close()
	if big.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-burst v1 delete status %d, want 400", big.StatusCode)
	}
}

func TestTenantStatsEndpoint(t *testing.T) {
	ts, _ := newAuthServer(t, AuthRequired, nil,
		TenantConfig{Name: "alice", Key: "ak_alice", MaxSessions: 5, DeletionRowsPerSec: 1000})
	sr, resp := v2CreateAs(t, ts.URL, "ak_alice", v2CreateBody(t, "linear", 80, 4, 3))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	lines := streamBatchesAs(t, ts.URL+"/v2/sessions/"+sr.SessionID+"/deletions", "ak_alice",
		[]string{`{"remove":[1,2,3]}`})
	var dr DeletionResult
	if err := json.Unmarshal([]byte(lines[0]), &dr); err != nil {
		t.Fatal(err)
	}

	stResp := doAuthed(t, http.MethodGet, ts.URL+"/v2/tenants/self/stats", "ak_alice", nil, "")
	defer stResp.Body.Close()
	if stResp.StatusCode != http.StatusOK {
		t.Fatalf("tenant stats status %d", stResp.StatusCode)
	}
	var tsr TenantStatsResponse
	if err := json.NewDecoder(stResp.Body).Decode(&tsr); err != nil {
		t.Fatal(err)
	}
	if tsr.Tenant != "alice" || !tsr.Authenticated {
		t.Fatalf("tenant stats identity %+v", tsr)
	}
	if tsr.ResidentSessions != 1 || tsr.ResidentBytes <= 0 {
		t.Fatalf("tenant stats usage %+v", tsr)
	}
	if tsr.Trains != 1 || tsr.Deletes != 1 || tsr.RowsDeleted != 3 {
		t.Fatalf("tenant stats counters %+v", tsr)
	}
	if tsr.MaxSessions != 5 || tsr.DeletionRowsPerSec != 1000 {
		t.Fatalf("tenant stats limits %+v", tsr)
	}
}

// TestV2ExplicitDeleteUnlinksSpillFile is the spill-file hygiene check over
// the API: DELETE /v2/sessions/{id} of a spilled session removes its file,
// and the /healthz spill_dir_bytes gauge reflects the reclaimed disk.
func TestV2ExplicitDeleteUnlinksSpillFile(t *testing.T) {
	dir := t.TempDir()
	mem := store.NewMemory(store.WithMaxSessions(1))
	tiered, err := store.NewTiered(dir, mem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tiered.Close() })
	ts := newTestServerOpts(t, WithStore(tiered))

	sr := v2Create(t, ts.URL, v2CreateBody(t, "linear", 60, 3, 1))
	sr2 := v2Create(t, ts.URL, v2CreateBody(t, "linear", 60, 3, 2)) // evicts + spills sr
	tiered.Flush()                                                  // settle the write-behind worker (sr2's warm backup)

	var h HealthResponse
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if h.Spilled != 1 || h.SpillDirBytes <= 0 {
		t.Fatalf("healthz before delete: spilled=%d spill_dir_bytes=%d", h.Spilled, h.SpillDirBytes)
	}

	// Delete both sessions: the spilled one and the resident one (whose
	// eager write-behind snapshot is a warm backup on disk) — explicit
	// deletes must reclaim every file either way.
	for _, id := range []string{sr.SessionID, sr2.SessionID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/sessions/"+id, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete session %s status %d", id, dresp.StatusCode)
		}
	}
	tiered.Flush()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill dir still holds %d file(s) after explicit delete", len(entries))
	}
	hresp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var after HealthResponse // fresh: omitempty-zero fields must not inherit h's
	if err := json.NewDecoder(hresp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if after.SpillDirBytes != 0 || after.Spilled != 0 {
		t.Fatalf("healthz after delete: spilled=%d spill_dir_bytes=%d, want 0/0", after.Spilled, after.SpillDirBytes)
	}
}

func TestKeyringReloadRotatesKeys(t *testing.T) {
	path := writeKeyFile(t, TenantConfig{Name: "alice", Key: "ak_old"})
	kr, err := LoadKeyring(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := kr.Resolve("ak_old"); !ok {
		t.Fatal("initial key should resolve")
	}
	buf, _ := json.Marshal(map[string]any{"tenants": []TenantConfig{
		{Name: "alice", Key: "ak_new"}, {Name: "carol", Key: "ak_carol"},
	}})
	if err := os.WriteFile(path, buf, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := kr.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := kr.Resolve("ak_old"); ok {
		t.Fatal("rotated key must stop resolving")
	}
	ten, ok := kr.Resolve("ak_new")
	if !ok || ten.Name != "alice" {
		t.Fatalf("new key resolve: %v %v", ten, ok)
	}
	if _, ok := kr.Resolve("ak_carol"); !ok {
		t.Fatal("added tenant should resolve")
	}
	if kr.Len() != 2 {
		t.Fatalf("len %d, want 2", kr.Len())
	}

	// A broken edit keeps the previous keyring.
	if err := os.WriteFile(path, []byte("{nope"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := kr.Reload(); err == nil {
		t.Fatal("reload of a broken file should error")
	}
	if _, ok := kr.Resolve("ak_new"); !ok {
		t.Fatal("broken reload must keep the previous keys")
	}

	// Validation: duplicate names, reused keys, bad tenant names.
	for _, bad := range []string{
		`{"tenants":[{"name":"x","key":"k"},{"name":"x","key":"k2"}]}`,
		`{"tenants":[{"name":"x","key":"k"},{"name":"y","key":"k"}]}`,
		`{"tenants":[{"name":"a/b","key":"k"}]}`,
		`{"tenants":[{"name":"","key":"k"}]}`,
		`{"tenants":[{"name":"x","key":""}]}`,
		`{"tenants":[{"name":"x","key":"k","max_sessions":-1}]}`,
	} {
		if err := os.WriteFile(path, []byte(bad), 0o600); err != nil {
			t.Fatal(err)
		}
		if err := kr.Reload(); err == nil {
			t.Fatalf("reload accepted invalid key file %s", bad)
		}
	}
}
