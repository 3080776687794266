package priu

import (
	"bytes"
	"math"
	"testing"
)

// fuzzSeedSnapshot builds one small valid session snapshot of family over a
// training set of the shape the family needs (the happy-path seeds the
// mutator perturbs).
func fuzzSeedSnapshot(f *testing.F, family string, deleted []int) []byte {
	f.Helper()
	var (
		ds  TrainingSet
		err error
	)
	switch family {
	case FamilyLogistic, FamilyLogisticOpt:
		ds, err = GenerateBinary("fuzz-lg", 20, 3, 1.2, 1)
	case FamilyMultinomialOpt:
		ds, err = GenerateMulticlass("fuzz-mc", 24, 3, 3, 1.5, 1)
	case FamilySparseLogistic:
		ds, err = GenerateSparseBinary("fuzz-sp", 20, 12, 3, 1)
	default:
		ds, err = GenerateRegression("fuzz", 20, 3, 0.05, 1)
	}
	if err != nil {
		f.Fatal(err)
	}
	u, err := Train(family, ds,
		WithEta(0.01), WithLambda(0.05), WithBatchSize(10),
		WithIterations(5), WithSeed(1), WithFullCaches())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSessionSnapshot(&buf, family, ds, u, deleted); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadSessionSnapshot hammers the session-snapshot decoder with mutated
// streams: it must never panic or over-allocate, and whatever it accepts
// must be a coherent session (registered family, non-nil training set and
// updater, every deletion-log index in range) whose updater runs: Update with
// no removals and with the snapshot's own deletion log must not panic, and
// where Update of the log succeeds, the cursor a restored session rebuilds
// (ReplayLog, which for the opt families holds the loader's derived
// occurrence index) must evaluate to its exact bits. Seed corpus in
// testdata/fuzz/FuzzReadSessionSnapshot.
func FuzzReadSessionSnapshot(f *testing.F) {
	valid := fuzzSeedSnapshot(f, FamilyLinear, []int{2, 7})
	f.Add(valid)
	f.Add(fuzzSeedSnapshot(f, FamilyLogistic, []int{4}))
	f.Add(fuzzSeedSnapshot(f, FamilySparseLogistic, []int{1, 13}))
	f.Add(fuzzSeedSnapshot(f, FamilyLogisticOpt, []int{6, 2, 11}))
	f.Add(fuzzSeedSnapshot(f, FamilyMultinomialOpt, []int{3, 19, 8}))
	f.Add(valid[:len(valid)/2])  // truncated mid-provenance
	f.Add(valid[:16])            // truncated mid-header
	f.Add([]byte("PRSNgarbage")) // magic then junk
	f.Add([]byte{})              // empty
	corrupted := append([]byte(nil), valid...)
	corrupted[7] ^= 0xff // flip a version/length byte
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		family, ds, u, deleted, err := ReadSessionSnapshot(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		if ds == nil || u == nil {
			t.Fatalf("accepted snapshot with nil parts: ds=%v u=%v", ds, u)
		}
		if _, ok := Lookup(family); !ok {
			t.Fatalf("accepted snapshot of unregistered family %q", family)
		}
		n := ds.N()
		for _, idx := range deleted {
			if idx < 0 || idx >= n {
				t.Fatalf("accepted out-of-range deletion index %d (n=%d)", idx, n)
			}
		}
		// An error is an answer; only a panic fails the target.
		_, _ = u.Update(nil)
		want, err := u.Update(deleted)
		if err != nil {
			return
		}
		cur, err := ReplayLog(u, n, deleted)
		if err != nil {
			return
		}
		got, err := cur.Eval()
		if err != nil {
			return
		}
		gv, wv := got.Vec(), want.Vec()
		if len(gv) != len(wv) {
			t.Fatalf("%s: cursor Eval has %d parameters, Update %d", family, len(gv), len(wv))
		}
		for i := range gv {
			if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
				t.Fatalf("%s: cursor Eval parameter %d is %v, Update gives %v", family, i, gv[i], wv[i])
			}
		}
	})
}
