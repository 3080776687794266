package store

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/priu"
)

// The property/oracle suite: randomized Put/Touch/Get/Delete churn from
// several tenants against a plain-map oracle, with LRU evictions, the
// write-behind worker, disk-budget file evictions and GC sweeps racing
// underneath, punctuated by crash-restarts on the same directory. Run under
// -race.
//
// Invariants asserted:
//   - no session is ever in zero tiers: every oracle-live session Gets OK,
//     except those the disk budget dropped — and every such drop is
//     observable (the onDiskEvict hook fires before the miss is possible);
//   - the spill directory's maintained byte gauge never exceeds the budget,
//     sampled continuously during the churn;
//   - quota counters are exact at quiescence: per-tenant owned sessions
//     equal the oracle's live set;
//   - a crash-restart (drain + reboot) preserves exactly the live set;
//   - every round folds at least one chain, so folds race the rest.

// propOracle is one tenant's view of what the store must hold. dels counts
// the deletions each session has absorbed: surviving sessions must come
// back from any tier — delta chain, folded base, restart — with exactly
// that log length.
type propOracle struct {
	tenant string
	live   map[string]bool
	dels   map[string]int
	nextID int
	rng    *rand.Rand
}

func (o *propOracle) newID() string {
	o.nextID++
	return fmt.Sprintf("%s/sess-%04d", o.tenant, o.nextID)
}

func (o *propOracle) randLive() string {
	if len(o.live) == 0 {
		return ""
	}
	n := o.rng.Intn(len(o.live))
	for id := range o.live {
		if n == 0 {
			return id
		}
		n--
	}
	return ""
}

func TestStorePropertyOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized churn suite")
	}
	const (
		tenants     = 3
		rounds      = 4
		opsPerRound = 80
		maxSessions = 12 // per-tenant quota, never binding alone
	)
	fileSize := spillFileSize(t, "t0/sess-0000")
	budget := fileSize * 10 // tight: forces disk-budget file evictions

	// Shared read-only bases: one trained updater per tenant, reused across
	// its sessions (the suite never mutates models, so concurrent snapshot
	// writes of one updater are pure reads).
	type base struct {
		ds  priu.TrainingSet
		upd priu.Updater
	}
	bases := make([]base, tenants)
	for g := range bases {
		d, err := priu.GenerateRegression(fmt.Sprintf("prop-%d", g), 60, 4, 0.05, int64(g+1))
		if err != nil {
			t.Fatal(err)
		}
		u, err := priu.Train("linear", d,
			priu.WithEta(0.01), priu.WithLambda(0.05), priu.WithBatchSize(15),
			priu.WithIterations(20), priu.WithSeed(int64(g+1)), priu.WithFullCaches())
		if err != nil {
			t.Fatal(err)
		}
		bases[g] = base{d, u}
	}

	limits := limitsMap(map[string]TenantLimits{
		"t0": {MaxSessions: maxSessions},
		"t1": {MaxSessions: maxSessions},
		"t2": {MaxSessions: maxSessions},
	})
	dir := t.TempDir()
	// dropped records every by-design loss — disk-budget drops of cold
	// sessions and evictions whose spill the full disk rejected — before the
	// loss is observable, so the oracle can tell "lost, and accounted for"
	// from "silently vanished".
	var dropped sync.Map
	open := func() *Tiered {
		// Aggressive LSM settings: every second cut of a chain folds it.
		// With two resident slots most sessions are cold, so restores race
		// the folds, and dirty victims the worker has not reached yet take
		// the eviction's synchronous fallback while it publishes.
		ti := newSteppedTiered(t, dir,
			NewMemory(WithMaxSessions(2), WithTenantLimits(limits)),
			1, defaultGCAge, WithSpillMaxBytes(budget))
		ti.onDiskEvict = func(id string) { dropped.Store(id, true) }
		ti.onEvictLost = func(id string) { dropped.Store(id, true) }
		ti.startLifecycle(5 * time.Millisecond) // GC sweeps race restores
		return ti
	}
	ti := open()
	// Per-run totals, logged at the end: folds, spills the eviction
	// fallback made rather than the worker, and discarded publishes.
	var folds, syncSpills, stale int64

	oracles := make([]*propOracle, tenants)
	for g := range oracles {
		oracles[g] = &propOracle{
			tenant: fmt.Sprintf("t%d", g),
			live:   map[string]bool{},
			dels:   map[string]int{},
			rng:    rand.New(rand.NewSource(int64(1000 + g))),
		}
	}

	isDropped := func(id string) bool { _, ok := dropped.Load(id); return ok }
	// pruneDropped removes disk-evicted sessions from an oracle's live set.
	pruneDropped := func(o *propOracle) {
		for id := range o.live {
			if isDropped(id) {
				delete(o.live, id)
			}
		}
	}

	for round := 0; round < rounds; round++ {
		// Budget monitor: the maintained gauge must never exceed the budget,
		// at any instant of the churn.
		var overBudget atomic.Int64
		stopMon := make(chan struct{})
		var monWG sync.WaitGroup
		monWG.Add(1)
		go func() {
			defer monWG.Done()
			for {
				select {
				case <-stopMon:
					return
				default:
				}
				if got := ti.Stats().SpillDirBytes; got > budget {
					overBudget.Store(got)
				}
				time.Sleep(time.Millisecond)
			}
		}()

		var wg sync.WaitGroup
		for g := 0; g < tenants; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				o := oracles[g]
				for op := 0; op < opsPerRound; op++ {
					// Draws 10–25 mutate: most ops grow a log, so chains
					// reach a delta and fold while the rest races them.
					switch min(o.rng.Intn(26), 10) {
					case 10: // mutate: apply one more deletion
						id := o.randLive()
						if id == "" || o.dels[id] >= 30 {
							continue
						}
						sess, ok := ti.Get(id)
						if !ok {
							if !isDropped(id) {
								t.Errorf("live session %s vanished without a disk eviction", id)
							}
							delete(o.live, id)
							continue
						}
						sess.Mu.Lock()
						if sess.GoneLocked() {
							// Lost a race with an eviction between Get and
							// the lock — the service's retry path; skip.
							sess.Mu.Unlock()
							continue
						}
						next := len(sess.Deleted)
						if next != o.dels[id] {
							sess.Mu.Unlock()
							t.Errorf("session %s carries %d deletions, oracle says %d", id, next, o.dels[id])
							continue
						}
						all := append(append([]int(nil), sess.Deleted...), next)
						m, err := sess.Upd.Update(all)
						if err != nil {
							sess.Mu.Unlock()
							t.Errorf("update %s: %v", id, err)
							continue
						}
						sess.Deleted, sess.Model = all, m
						sess.Updates++
						sess.MarkDirtyLocked()
						sess.Mu.Unlock()
						o.dels[id] = next + 1
					case 0, 1, 2, 3: // put
						id := o.newID()
						sess := NewSession(id, "linear", bases[g].ds, bases[g].upd, nil, nil)
						err := ti.Put(sess)
						if err == nil {
							o.live[id] = true
						} else if _, ok := err.(*QuotaError); !ok {
							t.Errorf("Put(%s): unexpected error %v", id, err)
						}
					case 4, 5, 6, 7: // get + verify presence
						id := o.randLive()
						if id == "" {
							continue
						}
						if _, ok := ti.Get(id); !ok {
							if !isDropped(id) {
								t.Errorf("live session %s vanished without a disk eviction", id)
							}
							delete(o.live, id)
						}
					case 8: // touch
						id := o.randLive()
						if id == "" {
							continue
						}
						if !ti.Touch(id) {
							if !isDropped(id) {
								t.Errorf("live session %s untouchable without a disk eviction", id)
							}
							delete(o.live, id)
						}
					case 9: // delete
						id := o.randLive()
						if id == "" {
							continue
						}
						if !ti.Delete(id) && !isDropped(id) {
							t.Errorf("delete of live session %s reported missing", id)
						}
						delete(o.live, id)
					}
				}
			}(g)
		}
		wg.Wait()
		close(stopMon)
		monWG.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if got := overBudget.Load(); got != 0 {
			t.Fatalf("round %d: spill dir reached %d bytes, budget %d", round, got, budget)
		}

		// Quiescence: flush the write-behind backlog, settle the oracle
		// against async disk evictions, then check the books exactly.
		ti.Flush()
		for _, o := range oracles {
			pruneDropped(o)
			u := ti.TenantUsage(o.tenant)
			if u.Sessions() != len(o.live) {
				t.Fatalf("round %d: tenant %s owns %d sessions, oracle says %d",
					round, o.tenant, u.Sessions(), len(o.live))
			}
			// No session in zero tiers: every oracle-live session is
			// reachable (a Get may trigger evictions whose spills disk-evict
			// others — tolerated exactly like during the churn), and carries
			// exactly the deletions the oracle applied — whether it comes
			// back resident, from a delta chain, or from a folded base.
			for id := range o.live {
				sess, ok := ti.Get(id)
				if !ok {
					if !isDropped(id) {
						t.Fatalf("round %d: live session %s unreachable at quiescence", round, id)
					}
					continue
				}
				if _, nDel, _ := sessionState(t, sess); nDel != o.dels[id] {
					t.Fatalf("round %d: session %s has %d deletions, oracle says %d",
						round, id, nDel, o.dels[id])
				}
			}
			pruneDropped(o)
		}
		if got := ti.Stats().SpillDirBytes; got > budget {
			t.Fatalf("round %d: %d spill-dir bytes over the %d budget at quiescence", round, got, budget)
		}

		// Every round must fold, or the churn searches no fold racing the
		// evictions, the GC and restores.
		st := ti.Stats()
		if st.Compactions == 0 {
			t.Fatalf("round %d made no fold", round)
		}
		folds += st.Compactions
		syncSpills += st.Spills - st.WriteBehindSpills
		stale += st.StaleSpills

		// Crash-restart: drain, reboot on the same directory, and require
		// exactly the live set back.
		if err := ti.Close(); err != nil {
			t.Fatalf("round %d: drain: %v", round, err)
		}
		ti = open()
		for _, o := range oracles {
			// The drain itself can disk-evict cold sessions to fit dirty
			// stragglers; settle those before comparing the books.
			pruneDropped(o)
			u := ti.TenantUsage(o.tenant)
			if u.Sessions() != len(o.live) {
				t.Fatalf("round %d: after reboot tenant %s owns %d sessions, oracle says %d",
					round, o.tenant, u.Sessions(), len(o.live))
			}
			for id := range o.live {
				sess, ok := ti.Get(id)
				if !ok {
					if !isDropped(id) {
						t.Fatalf("round %d: session %s lost across restart", round, id)
					}
					continue
				}
				if _, nDel, _ := sessionState(t, sess); nDel != o.dels[id] {
					t.Fatalf("round %d: session %s restarted with %d deletions, oracle says %d",
						round, id, nDel, o.dels[id])
				}
			}
			pruneDropped(o)
		}
	}
	t.Logf("%d folds, %d sync-path spills, %d stale spills", folds, syncSpills, stale)
}
