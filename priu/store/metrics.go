package store

import (
	"time"

	"repro/priu/obs"
)

// TierMetrics carries the observability histogram handles the tiered store
// records tier-operation latencies into. The store keeps its own counters
// (Stats()) as the source of truth for counts; histograms capture what
// counters cannot — the latency distribution of spills, fsyncs, restores and
// blob round-trips. All fields are optional; the server registers them and
// hands the struct in via WithMetrics.
type TierMetrics struct {
	SpillSeconds      *obs.Histogram // delta or base spill publish: serialize + temp write + fsync + rename
	FsyncSeconds      *obs.Histogram // the fsync inside the spill temp write
	RestoreSeconds    *obs.Histogram // full restore: read + rebuild + publish
	CompactionSeconds *obs.Histogram // fold spill publish: snapshot copy + fsync + rename
	BlobPutSeconds    *obs.Histogram // blob upload round-trip
	BlobGetSeconds    *obs.Histogram // blob fetch round-trip (restore + adopt)
}

// NewTierMetrics registers the canonical tier-latency histogram families on
// reg and returns the handle set ready for WithMetrics. Spill/fsync/restore
// use the default sub-second buckets; blob round-trips get a wider ceiling
// because they cross the network.
func NewTierMetrics(reg *obs.Registry) *TierMetrics {
	blobBuckets := []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
	return &TierMetrics{
		SpillSeconds:      reg.Histogram("priu_store_spill_seconds", "Full spill publish duration: temp write, fsync and rename.", nil),
		FsyncSeconds:      reg.Histogram("priu_store_fsync_seconds", "Fsync duration inside the spill temp-file write.", nil),
		RestoreSeconds:    reg.Histogram("priu_store_restore_seconds", "Full restore duration: read, rebuild and publish.", nil),
		CompactionSeconds: reg.Histogram("priu_store_compaction_seconds", "Fold duration: a full delta chain's new base, its snapshot bytes copied, fsynced and published.", nil),
		BlobPutSeconds:    reg.Histogram("priu_blob_put_seconds", "Blob upload round-trip duration.", blobBuckets),
		BlobGetSeconds:    reg.Histogram("priu_blob_get_seconds", "Blob fetch round-trip duration (restore and adopt).", blobBuckets),
	}
}

// WithMetrics installs the latency histograms on a tiered store. Without it
// every recording site is a nil check and nothing more.
func WithMetrics(m *TierMetrics) TieredOption {
	return func(t *Tiered) { t.metrics = m }
}

// observeSince records elapsed seconds into h, tolerating a nil histogram
// (metrics not installed, or the field left unset).
func observeSince(h *obs.Histogram, start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}
