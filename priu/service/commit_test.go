package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/priu/store"
)

// sameParams reports whether two parameter vectors are bitwise equal.
func sameParams(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// directUpdate is the reference a commit must reproduce: one full-log
// Update of the session's deletion log, bypassing the live cursor.
func directUpdate(t *testing.T, st store.Store, id string) []float64 {
	t.Helper()
	sess, ok := st.Get(id)
	if !ok {
		t.Fatalf("session %s not in the store", id)
	}
	sess.Mu.Lock()
	log := append([]int(nil), sess.Deleted...)
	sess.Mu.Unlock()
	m, err := sess.Upd.Update(log)
	if err != nil {
		t.Fatal(err)
	}
	return m.Vec()
}

func liveParams(t *testing.T, baseURL, id string) ModelResponse {
	t.Helper()
	mr, code := getModel(t, baseURL, id)
	if code != http.StatusOK {
		t.Fatalf("GET model %s: status %d", id, code)
	}
	return mr
}

// TestCommitPathEquivalence commits unsorted, randomly ordered batches
// through the v2 stream and v1 (including v1's duplicate-tolerant batches)
// on every opt family, then requires the live parameters to be bitwise
// equal to a direct Update of the log, to the session after evict+restore,
// to the session after a kill and reboot on the tiered store, and to a
// snapshot clone — and every one of those to keep committing in step.
func TestCommitPathEquivalence(t *testing.T) {
	for i, family := range []string{"linear-opt", "logistic-opt", "multinomial-opt"} {
		family, seed := family, int64(90+i)
		t.Run(family, func(t *testing.T) {
			dir := t.TempDir()
			ti, err := store.NewTiered(dir, store.NewMemory(store.WithMaxSessions(2)))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = ti.Close() })
			tsA := httptest.NewServer(NewServer(WithStore(ti)).Handler())
			defer tsA.Close()

			// 6 features against logs of up to 20 rows: linear-opt crosses
			// from its Gram sums (Δn < m) into the dense regime mid-test.
			const n = 120
			id := v2Create(t, tsA.URL, v2CreateBody(t, family, n, 6, seed)).SessionID
			filler := v2Create(t, tsA.URL, v2CreateBody(t, family, n, 6, seed+10)).SessionID
			perm := rand.New(rand.NewSource(seed)).Perm(n)
			next := 0
			take := func(k int) []int {
				b := perm[next : next+k]
				next += k
				return b
			}
			remove := func(b []int) string {
				buf, _ := json.Marshal(map[string][]int{"remove": b})
				return string(buf)
			}
			v1 := func(base string, removed []int) DeleteResponse {
				var dr DeleteResponse
				if resp := postJSON(t, base+"/v1/delete", DeleteRequest{SessionID: id, Removed: removed}, &dr); resp.StatusCode != http.StatusOK {
					t.Fatalf("v1 delete %v: status %d", removed, resp.StatusCode)
				}
				return dr
			}
			check := func(what string, st store.Store, base string) ModelResponse {
				t.Helper()
				mr := liveParams(t, base, id)
				if want := directUpdate(t, st, id); !sameParams(mr.Parameters, want) {
					t.Fatalf("%s: live parameters differ from a direct Update of the %d-row log", what, mr.TotalDeleted)
				}
				return mr
			}

			streamBatches(t, tsA.URL+"/v2/sessions/"+id+"/deletions",
				[]string{remove(take(3)), remove(take(1)), remove(take(4))})
			v1(tsA.URL, take(2))
			// v1 tolerates repeats: an already-deleted id and a repeat
			// inside the batch join the log but fold once.
			dup := take(2)
			v1(tsA.URL, []int{dup[0], perm[0], dup[1], dup[0]})
			streamBatches(t, tsA.URL+"/v2/sessions/"+id+"/deletions", []string{remove(take(3))})
			live := check("v1+v2 commits", ti, tsA.URL)
			if live.TotalDeleted != 17 {
				t.Fatalf("total_deleted = %d, want 17 (v1 repeats count)", live.TotalDeleted)
			}

			// Snapshot clone: the imported session replays the log.
			snapResp, err := http.Get(tsA.URL + "/v2/sessions/" + id + "/snapshot")
			if err != nil {
				t.Fatal(err)
			}
			snap, err := io.ReadAll(snapResp.Body)
			snapResp.Body.Close()
			if err != nil || snapResp.StatusCode != http.StatusOK {
				t.Fatalf("snapshot: status %d, err %v", snapResp.StatusCode, err)
			}
			tsC := newTestServerOpts(t)
			cresp, err := http.Post(tsC.URL+"/v2/sessions", "application/octet-stream", bytes.NewReader(snap))
			if err != nil {
				t.Fatal(err)
			}
			var clone SessionResponse
			if err := json.NewDecoder(cresp.Body).Decode(&clone); err != nil {
				t.Fatal(err)
			}
			cresp.Body.Close()
			if !sameParams(clone.Parameters, live.Parameters) {
				t.Fatal("snapshot clone parameters differ from the live session")
			}

			// Evict + restore: touching the filler pushes the session out of
			// the two-slot resident tier; the next GET restores it from its
			// spill chain, with no cursor.
			liveParams(t, tsA.URL, filler)
			v2Create(t, tsA.URL, v2CreateBody(t, family, n, 6, seed+20))
			restores := ti.Stats().Restores
			if got := liveParams(t, tsA.URL, id); !sameParams(got.Parameters, live.Parameters) {
				t.Fatal("parameters after evict+restore differ from the live session")
			}
			if ti.Stats().Restores == restores {
				t.Fatal("the session was never evicted and restored")
			}

			// The restored session and the clone rebuild their cursors on the
			// next commit and stay in step with each other and Update(log).
			batch := remove(take(3))
			cl := streamBatches(t, tsC.URL+"/v2/sessions/"+clone.SessionID+"/deletions", []string{batch})
			streamBatches(t, tsA.URL+"/v2/sessions/"+id+"/deletions", []string{batch})
			live = check("commit after restore", ti, tsA.URL)
			var cr DeletionResult
			if err := json.Unmarshal([]byte(cl[0]), &cr); err != nil {
				t.Fatal(err)
			}
			if cr.Digest != ParamDigest(live.Parameters) {
				t.Fatal("snapshot clone diverged from the session on the same commit")
			}

			// Kill + reboot: once write-behind has certified the chain, a
			// fresh store on the same directory (the first one is abandoned,
			// as after kill -9) serves the same bits and keeps committing.
			ti.Flush()
			tsA.Close()
			tiB, err := store.NewTiered(dir, store.NewMemory())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = tiB.Close() })
			tsB := httptest.NewServer(NewServer(WithStore(tiB)).Handler())
			defer tsB.Close()
			if got := liveParams(t, tsB.URL, id); !sameParams(got.Parameters, live.Parameters) {
				t.Fatal("parameters after kill+reboot differ from the live session")
			}
			v1(tsB.URL, take(2))
			check("commit after reboot", tiB, tsB.URL)
		})
	}
}

// TestCommitAfterFailedFoldIsCorrect forces the cursor's Eval to fail after
// its Apply succeeded — a batch that would delete every remaining row — and
// requires the next commit to match a direct Update of the log: the failed
// fold must not leave its rows in the cursor.
func TestCommitAfterFailedFoldIsCorrect(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const n = 60
	id := v2Create(t, ts.URL, v2CreateBody(t, "logistic-opt", n, 4, 5)).SessionID
	perm := rand.New(rand.NewSource(5)).Perm(n)
	remove := func(b []int) string {
		buf, _ := json.Marshal(map[string][]int{"remove": b})
		return string(buf)
	}
	url := ts.URL + "/v2/sessions/" + id + "/deletions"
	streamBatches(t, url, []string{remove(perm[:5])})
	lines := streamBatches(t, url, []string{remove(perm[5:])})
	if !strings.Contains(lines[0], "no samples") {
		t.Fatalf("removing every row: got %s, want a no-samples error", lines[0])
	}
	lines = streamBatches(t, url, []string{remove(perm[5:8])})
	var dr DeletionResult
	if err := json.Unmarshal([]byte(lines[0]), &dr); err != nil || dr.TotalDeleted != 8 {
		t.Fatalf("commit after the failed fold: %s (err %v)", lines[0], err)
	}
	want := directUpdate(t, srv.st, id)
	if dr.Digest != ParamDigest(want) {
		t.Fatalf("commit after a failed fold differs from Update of the %d-row log", dr.TotalDeleted)
	}
}

// TestConcurrentCommitsMatchUpdate sends v1 deletions for one logistic-opt
// session from several goroutines at once — overlapping ids included — so
// commits contend on the session lock and its live cursor. Whatever order
// they land in, the final model must equal a direct Update of the log.
func TestConcurrentCommitsMatchUpdate(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := v2Create(t, ts.URL, v2CreateBody(t, "logistic-opt", 120, 6, 8)).SessionID
	perm := rand.New(rand.NewSource(8)).Perm(120)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < 5; b++ {
				// Neighbouring goroutines share one id per batch.
				start := (g*5 + b) * 3
				var dr DeleteResponse
				resp := postJSON(t, ts.URL+"/v1/delete", DeleteRequest{SessionID: id, Removed: perm[start : start+4]}, &dr)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d batch %d: status %d", g, b, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	mr := liveParams(t, ts.URL, id)
	if mr.TotalDeleted != 80 {
		t.Fatalf("total_deleted = %d, want 80", mr.TotalDeleted)
	}
	if want := directUpdate(t, srv.st, id); !sameParams(mr.Parameters, want) {
		t.Fatal("concurrent commits differ from a direct Update of the log")
	}
}

// TestV2RejectionsLeaveSessionUntouched: v2 batches holding an id already in
// the log, an id repeated within the batch or an out-of-range id are
// rejected as invalid_removals and leave the log, the model and
// total_deleted as they were — on a live session, after evict+restore
// (which rebuilds the log's membership set) and after a v1 commit whose
// repeats joined the log. The ids of a rejected batch stay deletable.
func TestV2RejectionsLeaveSessionUntouched(t *testing.T) {
	ti, err := store.NewTiered(t.TempDir(), store.NewMemory(store.WithMaxSessions(2)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ti.Close() })
	ts := httptest.NewServer(NewServer(WithStore(ti)).Handler())
	defer ts.Close()

	const n = 120
	id := v2Create(t, ts.URL, v2CreateBody(t, "logistic-opt", n, 6, 41)).SessionID
	filler := v2Create(t, ts.URL, v2CreateBody(t, "logistic-opt", n, 6, 42)).SessionID
	deletions := ts.URL + "/v2/sessions/" + id + "/deletions"
	streamBatches(t, deletions, []string{`{"remove":[5,9,13]}`})
	logOf := func() []int {
		sess, ok := ti.Get(id)
		if !ok {
			t.Fatalf("session %s not in the store", id)
		}
		sess.Mu.Lock()
		defer sess.Mu.Unlock()
		return append([]int(nil), sess.Deleted...)
	}

	fresh := 60 // ids from here up are committed once the rejections pass
	rejectAll := func(stage string, logged int) {
		t.Helper()
		before, beforeLog := liveParams(t, ts.URL, id), logOf()
		batches := []string{
			fmt.Sprintf(`{"remove":[%d]}`, logged),
			fmt.Sprintf(`{"remove":[%d,%d]}`, fresh, logged),
			fmt.Sprintf(`{"remove":[%d,%d,%d]}`, fresh, fresh+1, fresh),
			fmt.Sprintf(`{"remove":[%d,%d]}`, fresh+1, n),
			fmt.Sprintf(`{"remove":[-1,%d]}`, fresh),
		}
		for i, line := range streamBatches(t, deletions, batches) {
			var env ErrorEnvelope
			if err := json.Unmarshal([]byte(line), &env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != ErrCodeInvalidRemovals {
				t.Fatalf("%s: batch %s gave %q, want %q", stage, batches[i], env.Error.Code, ErrCodeInvalidRemovals)
			}
		}
		after, afterLog := liveParams(t, ts.URL, id), logOf()
		if !sameParams(after.Parameters, before.Parameters) || after.TotalDeleted != before.TotalDeleted {
			t.Fatalf("%s: rejected batches moved the model or total_deleted (%d → %d)", stage, before.TotalDeleted, after.TotalDeleted)
		}
		if fmt.Sprint(afterLog) != fmt.Sprint(beforeLog) {
			t.Fatalf("%s: rejected batches changed the log %v → %v", stage, beforeLog, afterLog)
		}
		// The rejected batches' new ids are still deletable.
		var res DeletionResult
		lines := streamBatches(t, deletions, []string{fmt.Sprintf(`{"remove":[%d,%d]}`, fresh, fresh+1)})
		if err := json.Unmarshal([]byte(lines[0]), &res); err != nil || res.TotalDeleted != before.TotalDeleted+2 {
			t.Fatalf("%s: committing the rejected batches' new ids: %s", stage, lines[0])
		}
		fresh += 2
		if want := directUpdate(t, ti, id); !sameParams(liveParams(t, ts.URL, id).Parameters, want) {
			t.Fatalf("%s: live parameters differ from a direct Update of the log", stage)
		}
	}

	rejectAll("live", 9)

	liveParams(t, ts.URL, filler)
	v2Create(t, ts.URL, v2CreateBody(t, "logistic-opt", n, 6, 43))
	restores := ti.Stats().Restores
	liveParams(t, ts.URL, id)
	if ti.Stats().Restores == restores {
		t.Fatal("the session was never evicted and restored")
	}
	rejectAll("after evict+restore", 13)

	var dr DeleteResponse
	if resp := postJSON(t, ts.URL+"/v1/delete", DeleteRequest{SessionID: id, Removed: []int{80, 5, 80}}, &dr); resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 delete: status %d", resp.StatusCode)
	}
	rejectAll("after a v1 commit with repeats", 80)
}

// TestWhatIfOnLogWithV1Repeats: v1 repeats join the log as sent, so the log
// holds an id more than once. What-if validates against the log's
// membership bits and evaluates the distinct union, bitwise equal to
// committing that union as one batch on a clone.
func TestWhatIfOnLogWithV1Repeats(t *testing.T) {
	ts := newTestServerOpts(t)
	body := v2CreateBody(t, "linear-opt", 100, 4, 9)
	sr := v2Create(t, ts.URL, body)
	v1Delete(t, ts.URL, sr.SessionID, []int{0, 1, 1})
	v1Delete(t, ts.URL, sr.SessionID, []int{0, 2})

	results, _ := whatifBatch(t, ts.URL, sr.SessionID, WhatIfRequest{Sets: [][]int{{7, 30}, {1, 8}}})
	if results[0].Error != nil {
		t.Fatalf("whatif error: %+v", results[0].Error)
	}
	if results[0].TotalDeleted != 5 {
		t.Fatalf("total_deleted = %d, want 5 (3 distinct committed + 2 candidate)", results[0].TotalDeleted)
	}
	if e := results[1].Error; e == nil || e.Message != "removal index 1 is duplicated or already deleted" {
		t.Fatalf("set with a committed id: error %+v, want already deleted", e)
	}
	clone := v2Create(t, ts.URL, body)
	committed := v1Delete(t, ts.URL, clone.SessionID, []int{0, 1, 2, 7, 30})
	if got := ParamDigest(committed); got != results[0].Digest {
		t.Fatalf("committed-union digest %s != what-if digest %s", got, results[0].Digest)
	}
}
