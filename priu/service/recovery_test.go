package service

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/priu/store"
)

// newTieredServer boots a server on a tiered store over dir, returning the
// test server and the store (whose Close is the SIGTERM drain). The default
// lifecycle applies: the write-behind worker snapshots sessions eagerly in
// the background, so the crash suite exercises the async path. Close is
// idempotent, so tests may also drain explicitly mid-test.
func newTieredServer(t *testing.T, dir string, opts ...ServerOption) (*httptest.Server, store.Store) {
	t.Helper()
	ti, err := store.NewTiered(dir, store.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ti.Close() })
	srv := NewServer(append(opts, WithStore(ti))...)
	ts := httptest.NewServer(srv.Handler())
	return ts, ti
}

// csrCreateBody builds a deterministic sparse-logistic CSR create request.
func csrCreateBody(t *testing.T, n, cols int, seed int64) CreateSessionRequest {
	t.Helper()
	req := CreateSessionRequest{
		Family: "sparse-logistic", Cols: cols,
		Eta: 0.05, Lambda: 0.01, BatchSize: 15, Iterations: 30, Seed: seed,
	}
	rng := rand.New(rand.NewSource(seed))
	truth := make([]float64, cols)
	for j := range truth {
		truth[j] = rng.NormFloat64()
	}
	req.Indptr = append(req.Indptr, 0)
	for i := 0; i < n; i++ {
		var dot float64
		for k := 0; k < 4; k++ {
			col := (i*4 + k*7) % cols
			val := rng.NormFloat64()
			req.Indices = append(req.Indices, col)
			req.Values = append(req.Values, val)
			dot += val * truth[col]
		}
		req.Indptr = append(req.Indptr, len(req.Values))
		if dot >= 0 {
			req.Labels = append(req.Labels, 1)
		} else {
			req.Labels = append(req.Labels, -1)
		}
	}
	return req
}

func getModel(t *testing.T, baseURL, id string) (ModelResponse, int) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/model/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr ModelResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
	}
	return mr, resp.StatusCode
}

// TestCrashRestartDurability is the acceptance check of the tiered store:
// train sessions of all seven engine families, delete rows, hard-stop the
// server (the store's Close is exactly what the SIGTERM handler runs — no
// graceful HTTP drain), boot a fresh server on the same directory, and
// require every model bitwise-identical and every honored deletion still
// deleted.
func TestCrashRestartDurability(t *testing.T) {
	dir := t.TempDir()
	tsA, stA := newTieredServer(t, dir)

	families := []string{
		"linear", "logistic", "multinomial",
		"linear-opt", "logistic-opt", "multinomial-opt",
	}
	type tracked struct {
		id      string
		kind    string
		params  []float64
		deleted int
	}
	var sessions []tracked
	for i, family := range families {
		sr := v2Create(t, tsA.URL, v2CreateBody(t, family, 80, 4, int64(60+i)))
		sessions = append(sessions, tracked{id: sr.SessionID, kind: family})
	}
	// Sparse-logistic arrives through the CSR upload path.
	sr := v2Create(t, tsA.URL, csrCreateBody(t, 60, 30, 77))
	sessions = append(sessions, tracked{id: sr.SessionID, kind: "sparse-logistic"})

	// Mid-traffic: interleaved deletions across every session.
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var dr DeleteResponse
			resp := postJSON(t, tsA.URL+"/v1/delete",
				DeleteRequest{SessionID: sessions[i].id, Removed: []int{2, 7}}, &dr)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s delete status %d", sessions[i].kind, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := range sessions {
		mr, code := getModel(t, tsA.URL, sessions[i].id)
		if code != http.StatusOK {
			t.Fatalf("%s model status %d", sessions[i].kind, code)
		}
		sessions[i].params = mr.Parameters
		sessions[i].deleted = mr.TotalDeleted
	}

	// Hard stop: the SIGTERM drain snapshots dirty residents, then the
	// process dies without any HTTP-level goodbye.
	if err := stA.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	tsA.Close()

	// A fresh process on the same directory must serve everything.
	tsB, stB := newTieredServer(t, dir)
	defer tsB.Close()
	defer stB.Close()

	for _, want := range sessions {
		mr, code := getModel(t, tsB.URL, want.id)
		if code != http.StatusOK {
			t.Fatalf("%s (%s) not servable after restart: status %d", want.id, want.kind, code)
		}
		if mr.Kind != want.kind {
			t.Fatalf("%s family %q after restart, want %q", want.id, mr.Kind, want.kind)
		}
		if mr.TotalDeleted != want.deleted {
			t.Fatalf("%s lost deletions: %d, want %d", want.id, mr.TotalDeleted, want.deleted)
		}
		if len(mr.Parameters) != len(want.params) {
			t.Fatalf("%s parameter count %d, want %d", want.id, len(mr.Parameters), len(want.params))
		}
		for j := range want.params {
			if mr.Parameters[j] != want.params[j] {
				t.Fatalf("%s (%s) parameter %d differs after restart: %v vs %v",
					want.id, want.kind, j, mr.Parameters[j], want.params[j])
			}
		}
		// The honored deletions are still in the log: re-deleting one of
		// them is rejected as already deleted.
		line := streamBatches(t, tsB.URL+"/v2/sessions/"+want.id+"/deletions", []string{`{"remove":[2]}`})
		var env ErrorEnvelope
		if err := json.Unmarshal([]byte(line[0]), &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != ErrCodeInvalidRemovals {
			t.Fatalf("%s re-delete of honored row gave %q, want %q", want.id, env.Error.Code, ErrCodeInvalidRemovals)
		}
	}

	// New registrations must not collide with restored IDs.
	var tr TrainResponse
	resp := postJSON(t, tsB.URL+"/v1/train", trainBody(t, "linear", 50, 3, 99), &tr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart train status %d", resp.StatusCode)
	}
	for _, s := range sessions {
		if s.id == tr.SessionID {
			t.Fatalf("restarted server reissued session ID %s", tr.SessionID)
		}
	}

	// Restored-session counters survived and the restart is visible in stats.
	var stats StatsResponse
	sresp, err := http.Get(tsB.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Restores != int64(len(sessions)) {
		t.Fatalf("restores = %d, want %d", stats.Restores, len(sessions))
	}
}

// TestEvictTouchRestoreUnderLoad exercises the spill→touch→restore path over
// HTTP with a tight budget and concurrent touches of cold sessions (run with
// -race): deletions applied before an eviction must survive the round trip,
// and the restored session must keep serving deletions.
func TestEvictTouchRestoreUnderLoad(t *testing.T) {
	dir := t.TempDir()
	// Two sessions under a max-1 budget ping-pong between tiers. The service
	// option path configures the default store, so build the budgeted memory
	// tier directly.
	ti, err := store.NewTiered(dir, store.NewMemory(store.WithMaxSessions(1)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ti.Close() })
	ts2 := httptest.NewServer(NewServer(WithStore(ti)).Handler())
	defer ts2.Close()

	var ids []string
	for i := 0; i < 2; i++ {
		var tr TrainResponse
		resp := postJSON(t, ts2.URL+"/v1/train", trainBody(t, "linear", 60, 3, int64(80+i)), &tr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("train %d status %d", i, resp.StatusCode)
		}
		ids = append(ids, tr.SessionID)
	}

	// Alternate deletions between the two sessions: every request forces an
	// evict+spill of one and a restore of the other, concurrently.
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(id string, round int) {
				defer wg.Done()
				var dr DeleteResponse
				resp := postJSON(t, ts2.URL+"/v1/delete",
					DeleteRequest{SessionID: id, Removed: []int{round*3 + 1, round*3 + 2}}, &dr)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("delete %s round %d status %d", id, round, resp.StatusCode)
				}
			}(ids[g], round)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}

	// Both sessions still reachable with their full cumulative logs.
	for _, id := range ids {
		mr, code := getModel(t, ts2.URL, id)
		if code != http.StatusOK {
			t.Fatalf("session %s unreachable: %d", id, code)
		}
		if mr.TotalDeleted != 8 {
			t.Fatalf("session %s lost deletions across tier moves: %d, want 8", id, mr.TotalDeleted)
		}
	}
	stats := ti.Stats()
	if stats.Spills == 0 || stats.Restores == 0 {
		t.Fatalf("tier traffic never happened: %+v", stats)
	}
}
