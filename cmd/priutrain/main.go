// Command priutrain demonstrates the full PrIU workflow from the command
// line: generate (or simulate) a training set, train the initial model while
// capturing provenance, delete a subset of samples, and compare the
// incremental update against retraining from scratch.
//
// Usage:
//
//	priutrain -workload higgs -rate 0.01
//	priutrain -workload sgemm-original -rate 0.001 -method PrIU-opt
//
// With -server the same workflow runs against a remote priuserve through the
// priu/client SDK instead of in-process: the workload's data is uploaded to
// POST /v2/sessions, the removals stream over the full-duplex NDJSON
// deletions endpoint (digest-verified, with automatic retry when the
// tenant's rate limit throttles a batch), and the session round-trips
// through snapshot export + restore to prove the provenance survived:
//
//	priutrain -server http://localhost:8080 -api-key ak_live_acme \
//	          -workload sgemm-original -scale 0.05 -rate 0.01
//
// With -whatif (remote only) the workflow previews deletions before
// committing: the removal pick is expanded into overlapping candidate sets,
// evaluated in one POST /v2/sessions/{id}/whatif batch (the server shares
// work between sets through a prefix tree — the cache-hit count is printed),
// and then the first candidate is actually committed and its digest checked
// against the what-if prediction:
//
//	priutrain -server http://localhost:8080 -whatif \
//	          -workload sgemm-original -scale 0.05 -rate 0.01
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/priu"
	"repro/priu/bench"
	"repro/priu/client"
	"repro/priu/service"
)

func main() {
	var (
		workload = flag.String("workload", "sgemm-original", "workload id (see priubench -list workloads in README)")
		rate     = flag.Float64("rate", 0.01, "deletion rate in (0,1)")
		method   = flag.String("method", "PrIU", "update method: PrIU | PrIU-opt")
		scale    = flag.Float64("scale", 0.25, "workload scale factor in (0,1]")
		server   = flag.String("server", "", "priuserve base URL; when set, run the workflow remotely through priu/client")
		apiKey   = flag.String("api-key", "", "tenant API key for -server (Authorization: Bearer)")
		whatif   = flag.Bool("whatif", false, "with -server: preview the removal through /v2 what-if before committing it")
	)
	flag.Parse()

	wl, err := bench.WorkloadByID(*workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "priutrain: %v\navailable workloads:\n", err)
		for id := range bench.Workloads {
			fmt.Fprintf(os.Stderr, "  %s\n", id)
		}
		os.Exit(2)
	}
	m := bench.Method(*method)
	if m != bench.MethodPrIU && m != bench.MethodPrIUOpt {
		fmt.Fprintf(os.Stderr, "priutrain: method must be PrIU or PrIU-opt\n")
		os.Exit(2)
	}

	if *server != "" {
		run := runRemote
		if *whatif {
			run = runRemoteWhatIf
		}
		if err := run(*server, *apiKey, wl.Scale(*scale), m, *rate); err != nil {
			fmt.Fprintf(os.Stderr, "priutrain: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *whatif {
		fmt.Fprintf(os.Stderr, "priutrain: -whatif requires -server\n")
		os.Exit(2)
	}

	fmt.Printf("preparing %s (scale %.2f): generating data, training, capturing provenance...\n", wl.ID, *scale)
	p, err := bench.Prepare(wl.Scale(*scale))
	if err != nil {
		fmt.Fprintf(os.Stderr, "priutrain: prepare: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("offline phase done in %.2fs (n=%d, provenance cached)\n", p.CaptureTime().Seconds(), p.N())

	removed := p.PickRemoval(*rate, 7)
	fmt.Printf("deleting %d samples (%.3g%% of training set)\n", len(removed), 100**rate)

	base, baseDt, err := p.RunUpdate(bench.MethodBaseL, removed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "priutrain: BaseL: %v\n", err)
		os.Exit(1)
	}
	upd, dt, err := p.RunUpdate(m, removed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "priutrain: %s: %v\n", m, err)
		os.Exit(1)
	}
	cmp, err := priu.Compare(upd, base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "priutrain: compare: %v\n", err)
		os.Exit(1)
	}
	baseMetric, _ := p.Evaluate(base)
	updMetric, _ := p.Evaluate(upd)

	fmt.Printf("\n%-14s %12s %12s\n", "", "BaseL", string(m))
	fmt.Printf("%-14s %12.3f %12.3f\n", "update (ms)", baseDt.Seconds()*1000, dt.Seconds()*1000)
	fmt.Printf("%-14s %12.4g %12.4g\n", "valid metric", baseMetric, updMetric)
	fmt.Printf("\nspeed-up: %.2fx   model closeness: %s\n",
		baseDt.Seconds()/dt.Seconds(), cmp)
}

// remoteCreateRequest builds the POST /v2/sessions body for a workload: the
// generated training set (dense rows or the CSR triple) plus the workload's
// hyperparameters.
func remoteCreateRequest(wl bench.Workload, family string) (service.CreateSessionRequest, int, error) {
	req := service.CreateSessionRequest{
		Family:     family,
		Eta:        wl.Cfg.Eta,
		Lambda:     wl.Cfg.Lambda,
		BatchSize:  wl.Cfg.BatchSize,
		Iterations: wl.Cfg.Iterations,
		Seed:       wl.Cfg.Seed,
	}
	dense, sp, err := wl.Generate()
	if err != nil {
		return req, 0, fmt.Errorf("generating workload data: %w", err)
	}
	if sp != nil {
		n := sp.N()
		req.Cols = sp.M()
		req.Labels = sp.Y
		req.Indptr = make([]int, 1, n+1)
		for i := 0; i < n; i++ {
			cols, vals := sp.X.Row(i)
			req.Indices = append(req.Indices, cols...)
			req.Values = append(req.Values, vals...)
			req.Indptr = append(req.Indptr, len(req.Values))
		}
		return req, n, nil
	}
	n := dense.N()
	if wl.Cfg.BatchSize > n {
		req.BatchSize = n
	}
	req.Classes = dense.Classes
	req.Labels = dense.Y
	req.Features = make([][]float64, n)
	for i := 0; i < n; i++ {
		req.Features[i] = dense.X.Row(i)
	}
	return req, n, nil
}

// runRemote drives the train → stream-deletions → snapshot → restore
// workflow against a live priuserve through the client SDK.
func runRemote(server, apiKey string, wl bench.Workload, m bench.Method, rate float64) error {
	family, err := wl.Family()
	if err != nil {
		return err
	}
	if m == bench.MethodPrIUOpt {
		family += "-opt"
	}
	if _, ok := priu.Lookup(family); !ok {
		return fmt.Errorf("family %q is not registered (method %s on workload %s)", family, m, wl.ID)
	}
	ctx := context.Background()
	cl := client.New(server, client.WithAPIKey(apiKey))
	if h, err := cl.Health(ctx); err != nil {
		return fmt.Errorf("probing %s: %w", server, err)
	} else {
		fmt.Printf("priuserve %s at %s (%d workers)\n", h.Version, server, h.Workers)
	}

	req, n, err := remoteCreateRequest(wl, family)
	if err != nil {
		return err
	}
	fmt.Printf("uploading %s (n=%d) and capturing provenance server-side...\n", wl.ID, n)
	start := time.Now()
	sr, err := cl.CreateSession(ctx, req)
	if err != nil {
		return fmt.Errorf("creating session: %w", err)
	}
	fmt.Printf("session %s trained in %.2fs (provenance %.1f MB, snapshottable=%v)\n",
		sr.SessionID, time.Since(start).Seconds(), float64(sr.FootprintBytes)/(1<<20), sr.Snapshottable)

	// Deterministic removal pick, split into streaming batches.
	k := int(float64(n) * rate)
	if k < 1 {
		k = 1
	}
	removed := rand.New(rand.NewSource(7)).Perm(n)[:k]
	batches := splitBatches(removed, 4)
	fmt.Printf("streaming %d removals in %d batches (digest-verified)...\n", k, len(batches))
	st, err := cl.StreamDeletions(ctx, sr.SessionID, client.StreamVerifyDigests())
	if err != nil {
		return err
	}
	defer st.Close()
	var lastDigest string
	for _, b := range batches {
		res, err := st.SendWait(b) // waits out tenant rate limits
		if err != nil {
			return fmt.Errorf("streaming deletions: %w", err)
		}
		fmt.Printf("  batch %d: removed %d (total %d) in %.1fms, digest %s\n",
			res.Batch, res.Removed, res.TotalDeleted, res.UpdateSeconds*1000, res.Digest)
		lastDigest = res.Digest
	}

	// Snapshot round trip: export, restore as a second session, and check
	// the restored model picks up exactly where the original left off.
	var snap bytes.Buffer
	if _, err := cl.SnapshotTo(ctx, sr.SessionID, &snap); err != nil {
		return fmt.Errorf("exporting snapshot: %w", err)
	}
	restored, err := cl.RestoreSnapshot(ctx, &snap)
	if err != nil {
		return fmt.Errorf("restoring snapshot: %w", err)
	}
	if got := service.ParamDigest(restored.Parameters); got != lastDigest {
		return fmt.Errorf("restored session digest %s does not match original %s", got, lastDigest)
	}
	fmt.Printf("snapshot round trip ok: %s restored as %s with matching digest %s\n",
		sr.SessionID, restored.SessionID, lastDigest)

	for _, id := range []string{sr.SessionID, restored.SessionID} {
		if err := cl.DeleteSession(ctx, id); err != nil {
			return fmt.Errorf("deleting session %s: %w", id, err)
		}
	}
	if apiKey != "" {
		ts, err := cl.TenantStats(ctx)
		if err != nil {
			return fmt.Errorf("fetching tenant stats: %w", err)
		}
		fmt.Printf("tenant %q: %d trains, %d rows deleted, %d rate-limited, %d quota rejections\n",
			ts.Tenant, ts.Trains, ts.RowsDeleted, ts.RateLimited, ts.QuotaRejections)
	}
	return nil
}

// runRemoteWhatIf drives the preview-then-commit workflow: train remotely,
// evaluate overlapping candidate deletion sets through the what-if endpoint
// (no state committed), then actually commit one candidate and verify the
// server's committed digest matches the what-if prediction bit for bit.
func runRemoteWhatIf(server, apiKey string, wl bench.Workload, m bench.Method, rate float64) error {
	family, err := wl.Family()
	if err != nil {
		return err
	}
	if m == bench.MethodPrIUOpt {
		family += "-opt"
	}
	if _, ok := priu.Lookup(family); !ok {
		return fmt.Errorf("family %q is not registered (method %s on workload %s)", family, m, wl.ID)
	}
	ctx := context.Background()
	cl := client.New(server, client.WithAPIKey(apiKey))
	if h, err := cl.Health(ctx); err != nil {
		return fmt.Errorf("probing %s: %w", server, err)
	} else {
		fmt.Printf("priuserve %s at %s (%d workers)\n", h.Version, server, h.Workers)
	}

	req, n, err := remoteCreateRequest(wl, family)
	if err != nil {
		return err
	}
	fmt.Printf("uploading %s (n=%d) and capturing provenance server-side...\n", wl.ID, n)
	sr, err := cl.CreateSession(ctx, req)
	if err != nil {
		return fmt.Errorf("creating session: %w", err)
	}
	defer cl.DeleteSession(ctx, sr.SessionID)

	// Overlapping candidates over one deterministic pick, ascending so the
	// committed batch below applies removals in the same order the what-if
	// plane evaluates them: a half-size prefix, the full set (reusing the
	// prefix in the server's tree), and the prefix again (pure cache hit).
	k := int(float64(n) * rate)
	if k < 2 {
		k = 2
	}
	full := rand.New(rand.NewSource(7)).Perm(n)[:k]
	sort.Ints(full)
	half := full[:k/2]
	sets := [][]int{half, full, half}
	fmt.Printf("previewing %d candidate deletion sets (%d/%d/%d rows) without committing...\n",
		len(sets), len(half), len(full), len(half))
	rep, err := cl.WhatIf(ctx, sr.SessionID, sets)
	if err != nil {
		return fmt.Errorf("what-if batch: %w", err)
	}
	for i, oc := range rep.Outcomes {
		if oc.Err != nil {
			return fmt.Errorf("what-if set %d: %w", i, oc.Err)
		}
		fmt.Printf("  set %d: %d rows → digest %s (l2 %.3g, %d sign flips) in %.1fms\n",
			i, oc.Result.RowsRemoved, oc.Result.Digest,
			oc.Result.Delta.L2Distance, oc.Result.Delta.SignFlips, oc.Result.EvalSeconds*1000)
	}
	fmt.Printf("what-if summary: %d sets, %d evaluated, %d prefix-tree cache hits, incremental=%v\n",
		rep.Summary.Sets, rep.Summary.Evaluated, rep.Summary.CacheHits, rep.Summary.Incremental)
	if rep.Summary.CacheHits == 0 {
		return fmt.Errorf("overlapping candidate sets produced no prefix-tree cache hits")
	}
	if d0, d2 := rep.Outcomes[0].Result.Digest, rep.Outcomes[2].Result.Digest; d0 != d2 {
		return fmt.Errorf("duplicate candidate digests diverged: %s vs %s", d0, d2)
	}

	// Commit the full candidate as one batch and hold the server to its
	// prediction.
	st, err := cl.StreamDeletions(ctx, sr.SessionID)
	if err != nil {
		return err
	}
	defer st.Close()
	res, err := st.SendWait(full)
	if err != nil {
		return fmt.Errorf("committing previewed set: %w", err)
	}
	want := rep.Outcomes[1].Result.Digest
	if res.Digest != want {
		return fmt.Errorf("committed digest %s does not match what-if prediction %s", res.Digest, want)
	}
	fmt.Printf("whatif commit verified: committed %d rows, digest %s matches the preview\n",
		res.TotalDeleted, res.Digest)
	return nil
}

// splitBatches partitions a removal set into up to k non-empty batches.
func splitBatches(removed []int, k int) [][]int {
	if k > len(removed) {
		k = len(removed)
	}
	out := make([][]int, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*len(removed)/k, (i+1)*len(removed)/k
		if lo < hi {
			out = append(out, removed[lo:hi])
		}
	}
	return out
}
