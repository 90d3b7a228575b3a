package storage

// This file declares the cluster-plane types of the replicated Ring: the
// stats it reports, the reporter interface metrics layers discover, and
// the reserved address under which the metadata catalog is snapshotted
// into the backend. core and internal/server surface them without
// importing internal/router (which imports internal/server for its node
// clients).

// CatalogSnapshotVideo is the reserved logical-video name under which
// core.Store.Maintain snapshots the metadata catalog into the backend
// (Options.SnapshotCatalog). It rides the backend's ordinary replicated
// write path — on a routed fleet every replica node holds a copy — and
// closes the catalog's single-point-of-failure: core.RestoreCatalog
// rebuilds a store's <dir>/catalog from it after the router host is
// lost. The leading dot keeps it out of any legal video namespace
// (core rejects video names beginning with a dot), and scrub passes
// skip it: Maintain rewrites it wholesale every pass, so repairing a
// divergent copy mid-pass would churn against the writer.
const CatalogSnapshotVideo = ".vss-catalog"

// CatalogSnapshotDir is the physical-video directory of the catalog
// snapshot GOP (seq 0 under it holds the snapshot.json bytes).
const CatalogSnapshotDir = "snapshot"

// NodeHealthStats is one ring member's row in ClusterStats.
type NodeHealthStats struct {
	// Addr is the member's label: a remote node's base URL, or a local
	// shard's root path.
	Addr string `json:"addr"`
	// Errors is the cumulative count of failed operations against this
	// member (reads, writes, deletes, repairs).
	Errors int64 `json:"errors"`
	// Demoted reports whether the member currently sits at the back of
	// the read failover order (consecutive failures, not yet followed by a
	// success).
	Demoted bool `json:"demoted"`
}

// ClusterStats is a point-in-time snapshot of a Ring: placement config,
// failover activity, the write-repair journal, repair-cycle counters,
// per-member health, and the most recent scrub pass. It is the cluster
// section of vssd /metrics whenever the serving store is a ring — local
// shard roots or remote nodes.
type ClusterStats struct {
	// Nodes is the number of ring members (shard roots or nodes).
	Nodes    int `json:"nodes"`
	Replicas int `json:"replicas"`
	// Failovers counts reads served by a non-primary replica.
	Failovers int64 `json:"failovers"`
	// JournalDepth is the number of (GOP, member) repairs currently queued;
	// JournalDropped counts entries evicted without repair (journal full,
	// or an entry exceeding its attempt budget) — those copies wait for
	// the next full scrub instead.
	JournalDepth   int   `json:"journal_depth"`
	JournalDropped int64 `json:"journal_dropped"`
	// RepairCycles counts Repair passes; Repaired counts replica copies
	// the journal re-created; RepairFailures counts repair attempts that
	// failed and were re-queued.
	RepairCycles   int64 `json:"repair_cycles"`
	Repaired       int64 `json:"repaired"`
	RepairFailures int64 `json:"repair_failures"`
	// Scrubs counts completed full scrub passes; LastScrub reports the
	// most recent one (zero value if none has run).
	Scrubs     int64             `json:"scrubs"`
	LastScrub  ScrubStats        `json:"last_scrub"`
	NodeHealth []NodeHealthStats `json:"node_health"`
}

// ClusterReporter is implemented by the Ring. Callers discover it
// through AsClusterReporter so metrics wrappers stay transparent, the
// way AsScrubber discovers Scrubber.
type ClusterReporter interface {
	ClusterStats() ClusterStats
}

// AsClusterReporter returns the nearest ClusterReporter in b's wrap chain
// (chasing Unwrap like errors.Unwrap), or nil when the backend is not a
// ring.
func AsClusterReporter(b Backend) ClusterReporter {
	for b != nil {
		if cr, ok := b.(ClusterReporter); ok {
			return cr
		}
		u, ok := b.(interface{ Unwrap() Backend })
		if !ok {
			return nil
		}
		b = u.Unwrap()
	}
	return nil
}
