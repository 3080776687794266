package service

import (
	"net/http"

	"repro/priu"
	"repro/priu/store"
)

// GET /v2/meta: server capability discovery — version, registered model
// families, which optional features this deployment enables (auth mode,
// disk spill tier, what-if plane) and the request limits a client should
// shape its traffic to. Clients probe it once instead of feature-detecting
// endpoint by endpoint; the v1 Deprecation/Sunset headers point here.

// String renders the auth mode for /v2/meta.
func (m AuthMode) String() string {
	switch m {
	case AuthOptional:
		return "optional"
	case AuthRequired:
		return "required"
	default:
		return "off"
	}
}

// MetaFeatures reports which optional subsystems the deployment enables.
type MetaFeatures struct {
	// AuthMode is "off", "optional" or "required".
	AuthMode string `json:"auth_mode"`
	// Spill reports whether evicted sessions survive in a disk tier
	// (-store-dir) instead of being dropped.
	Spill bool `json:"spill"`
	// WhatIf reports the what-if query plane
	// (POST /v2/sessions/{id}/whatif).
	WhatIf bool `json:"whatif"`
	// Blob reports a shared blob spill tier (-blob): any replica can
	// restore any spilled session.
	Blob bool `json:"blob"`
	// Fleet reports replica-fleet routing (-peers): requests for sessions
	// owned elsewhere are redirected or proxied to the owner.
	Fleet bool `json:"fleet"`
}

// MetaLimits reports the request limits callers should shape traffic to.
type MetaLimits struct {
	MaxSessions         int   `json:"max_sessions,omitempty"`
	MaxBytes            int64 `json:"max_bytes,omitempty"`
	MaxRemovalsPerBatch int   `json:"max_removals_per_batch"`
	// WhatIfWorkers is the per-batch what-if evaluation fan-out (0 = the
	// shared worker-pool width).
	WhatIfWorkers int `json:"whatif_workers,omitempty"`
	// WhatIfConcurrent caps one tenant's concurrent what-if streams (0 =
	// uncapped).
	WhatIfConcurrent int `json:"whatif_concurrent_per_tenant,omitempty"`
}

// MetaV1 describes the deprecated v1 surface's retirement schedule.
type MetaV1 struct {
	Deprecated bool   `json:"deprecated"`
	Sunset     string `json:"sunset"`
}

// MetaCluster describes the fleet this node belongs to: its own advertised
// URL, the configured member list, the members it currently believes alive,
// and the placement-ring epoch. Clients use Node/Peers to route
// session-affine traffic and RingVersion to detect membership churn.
type MetaCluster struct {
	Node        string   `json:"node"`
	Peers       []string `json:"peers"`
	Alive       []string `json:"alive"`
	RingVersion uint64   `json:"ring_version"`
}

// MetaResponse is the GET /v2/meta payload.
type MetaResponse struct {
	Version  string       `json:"version"`
	Families []string     `json:"families"`
	Features MetaFeatures `json:"features"`
	Limits   MetaLimits   `json:"limits"`
	// Cluster is only present on fleet members (-peers).
	Cluster *MetaCluster `json:"cluster,omitempty"`
	V1      MetaV1       `json:"v1"`
}

func (s *Server) handleV2Meta(w http.ResponseWriter, r *http.Request) {
	_, tiered := s.st.(*store.Tiered)
	resp := MetaResponse{
		Version:  priu.Version,
		Families: priu.Families(),
		Features: MetaFeatures{
			AuthMode: s.authMode.String(),
			Spill:    tiered,
			WhatIf:   true,
			Blob:     s.st.Stats().BlobTier,
			Fleet:    s.cluster != nil,
		},
		Limits: MetaLimits{
			MaxSessions:         s.maxSessions,
			MaxBytes:            s.maxBytes,
			MaxRemovalsPerBatch: s.maxRemovals,
			WhatIfWorkers:       s.whatifWorkers,
			WhatIfConcurrent:    s.whatifLimit,
		},
		V1: MetaV1{Deprecated: true, Sunset: v1Sunset},
	}
	if s.cluster != nil {
		ring := s.cluster.Ring()
		resp.Cluster = &MetaCluster{
			Node:        s.cluster.Self(),
			Peers:       s.cluster.Peers(),
			Alive:       ring.Nodes(),
			RingVersion: ring.Version(),
		}
	}
	writeJSON(w, resp)
}
