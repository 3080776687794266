package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/priu/obs"
)

// lockedLog is a race-free sink for a child process's combined output: the
// exec pipe goroutine writes while assertions read.
type lockedLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestObsSmoke is the end-to-end acceptance run behind `make obs-smoke`: it
// builds the real priuserve, boots it with the operator listener
// (-admin-addr) and an aggressive slow-op threshold, drives a
// train/delete/what-if workload through the SDK, and asserts the admin
// surface reflects it — every metric family present and monotone across the
// workload, a request trace fetchable by ID, pprof served, the slow-op log
// firing, and none of it reachable on the tenant port.
func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("obs smoke builds and execs real binaries; skipped in -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	serveBin := filepath.Join(t.TempDir(), "priuserve")
	build := exec.Command("go", "build", "-o", serveBin, "./cmd/priuserve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building priuserve: %v\n%s", err, out)
	}

	freePort := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	addr, adminAddr := freePort(), freePort()
	srv := exec.Command(serveBin,
		"-addr", addr,
		"-admin-addr", adminAddr,
		"-slow-op-ms", "1", // everything is a slow op: the log path must fire
		"-store-dir", t.TempDir(),
	)
	srvLog := &lockedLog{}
	srv.Stdout, srv.Stderr = srvLog, srvLog
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if srv.Process != nil {
			_ = srv.Process.Signal(syscall.SIGTERM)
			done := make(chan struct{})
			go func() { _ = srv.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				_ = srv.Process.Kill()
			}
		}
		if t.Failed() {
			t.Logf("priuserve log:\n%s", srvLog.String())
		}
	}()

	base, adminBase := "http://"+addr, "http://"+adminAddr
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	cl := New(base)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := cl.Health(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("priuserve never became healthy:\n%s", srvLog.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(adminBase + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		vals := map[string]float64{}
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			if f := strings.Fields(line); len(f) == 2 {
				name := f[0]
				if i := strings.IndexByte(name, '{'); i >= 0 {
					name = name[:i] // sum labeled children under the family+suffix
				}
				if v, err := strconv.ParseFloat(f[1], 64); err == nil {
					vals[name] += v
				}
			}
		}
		return vals
	}

	// Baseline scrape: every family from every layer must already be exposed
	// (zero-valued), not appear lazily after first use.
	before := scrape()
	for _, name := range []string{
		"priu_capture_seconds_count",
		"priu_deletion_rows_total",
		"priu_deletion_stream_seconds_count",
		"priu_whatif_streams_total",
		"priu_whatif_cache_hits_total",
		"priu_store_resident_sessions",
		"priu_store_spills_total",
		"priu_store_spill_seconds_count",
		"priu_store_spill_queue_depth",
		"priu_blob_puts_total",
		"priu_par_dispatches_total",
		"priu_cluster_probes_total",
	} {
		if _, ok := before[name]; !ok {
			t.Errorf("baseline scrape missing family %s", name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Workload: train a large session (a 3 MB body: its decode and capture
	// alone take well over the 1 ms slow-op threshold) and a small one,
	// stream two deletion batches, preview what-if sets with an overlapping
	// prefix (cache hits > 0).
	if _, err := cl.CreateSession(ctx, denseRequest(t, 5000, 32, 12)); err != nil {
		t.Fatal(err)
	}
	sr, err := cl.CreateSession(ctx, denseRequest(t, 200, 6, 11))
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.StreamDeletions(ctx, sr.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SendWait([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SendWait([]int{4, 5}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := cl.WhatIf(ctx, sr.SessionID, [][]int{{10, 11}, {10, 11, 12}}); err != nil {
		t.Fatal(err)
	}

	after := scrape()
	monotone := []struct {
		name string
		min  float64
	}{
		{"priu_capture_seconds_count", 1},
		{"priu_deletion_rows_total", 5},
		{"priu_deletion_stream_seconds_count", 1},
		{"priu_update_seconds_count", 2},
		{"priu_whatif_streams_total", 1},
		{"priu_whatif_sets_total", 2},
		{"priu_whatif_cache_hits_total", 1},
		{"priu_http_requests_total", 3}, // create + deletions stream + what-if
	}
	for _, m := range monotone {
		if delta := after[m.name] - before[m.name]; delta < m.min {
			t.Errorf("%s moved %v across the workload, want >= %v", m.name, delta, m.min)
		}
	}

	// Trace plane: list recent traces, fetch one by ID, and check the span
	// tree is non-empty.
	lresp, err := http.Get(adminBase + "/v2/debug/traces?limit=1000")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(listing.Traces) == 0 {
		t.Fatal("no traces recorded after the workload")
	}
	tresp, err := http.Get(adminBase + "/v2/debug/traces/" + listing.Traces[0].TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var tv obs.TraceView
	if err := json.NewDecoder(tresp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tv.TraceID != listing.Traces[0].TraceID || len(tv.Spans) == 0 {
		t.Fatalf("trace fetch returned %+v", tv)
	}

	// pprof is served on the admin listener.
	presp, err := http.Get(adminBase + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", presp.StatusCode)
	}

	// The admin surface must NOT leak onto the tenant port.
	for _, path := range []string{"/metrics", "/debug/pprof/", "/v2/debug/traces"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("tenant port serves %s (status %d) — admin surface leaked", path, resp.StatusCode)
		}
	}

	// With -slow-op-ms 1, the structured slow-op log must have fired. The
	// child's pipe drains asynchronously, so poll briefly.
	slowDeadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(srvLog.String(), "slow-op trace=") {
		if time.Now().After(slowDeadline) {
			t.Fatalf("no slow-op line in the server log:\n%s", srvLog.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Every listed trace at or over the threshold logged its own line.
	var slow []string
	for _, tr := range listing.Traces {
		if tr.DurationUs >= 1000 {
			slow = append(slow, tr.TraceID)
		}
	}
	if len(slow) == 0 {
		t.Fatalf("no listed trace took 1 ms, not even the large create: %+v", listing.Traces)
	}
	for _, id := range slow {
		for !strings.Contains(srvLog.String(), "slow-op trace="+id+" ") {
			if time.Now().After(slowDeadline) {
				t.Fatalf("trace %s took over 1 ms but logged no slow-op line:\n%s", id, srvLog.String())
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	fmt.Println("obs-smoke: metric families, trace plane, pprof, admin isolation and slow-op log all verified")
}
