package storage

import (
	"errors"
	"io/fs"
)

// This file implements the ring's scrub pass: walk every placement,
// find replicas that are missing or the wrong size, and re-copy them
// from a healthy copy. Scrub is what turns "first write success makes
// it durable" into full R-way replication again after a member flaps,
// is wiped, or is replaced, and it is what the store's background
// maintenance loop runs (core.Store.Maintain).

// GOPAddr is one GOP's logical address — the coordinate replication
// places, fails over, and scrubs in.
type GOPAddr struct {
	Video   string
	PhysDir string
	Seq     int
}

// ScrubStats reports one scrub pass (the last_scrub field of the
// /metrics cluster section).
type ScrubStats struct {
	// Checked counts distinct GOP addresses examined.
	Checked int64 `json:"checked"`
	// Repaired counts replica copies re-created or rewritten, by the
	// pass's leading journal drain or by its walk.
	Repaired int64 `json:"repaired"`
	// Unrecoverable counts addresses that needed repair but had no
	// readable source copy of the authoritative size — including
	// oracle-known addresses with no copy left on ANY member. Nonzero
	// means data loss (or divergence the catalog no longer describes);
	// a GOP evicted while the scrub ran can transiently over-count it,
	// so the durable signal is a nonzero count across consecutive
	// passes.
	Unrecoverable int64 `json:"unrecoverable"`
	// Orphans counts GOP files the size oracle disclaimed (not in the
	// catalog): crash leftovers that replication does not maintain.
	Orphans int64 `json:"orphans"`
}

// SizeOracle answers what the metadata catalog expects of each GOP, so
// scrub repairs restore the bytes the catalog describes. Size should be
// LIVE (core answers from the catalog under the video's lock): scrub
// consults it immediately before destroying a divergent copy, so a GOP
// rewritten mid-scrub is judged against its current expected size, not
// a stale snapshot — without this, a rewrite whose replica fan-out
// partially failed could have its fresh copy "repaired" back to the
// stale one. All may be a snapshot; it is used only to enumerate
// catalog-known addresses with no surviving copy (total loss), where
// staleness at worst over-counts transiently. A nil oracle means
// largest-copy-wins over whatever the walk finds.
type SizeOracle interface {
	// Size returns a GOP's expected stored size, or ok == false for
	// addresses the catalog does not describe (orphans).
	Size(a GOPAddr) (int64, bool)
	// All enumerates every catalog-known address and its expected size.
	All() map[GOPAddr]int64
}

// StaticSizes is a SizeOracle over a fixed map, for tests and offline
// tools that have no live catalog.
type StaticSizes map[GOPAddr]int64

// Size looks the address up in the map.
func (m StaticSizes) Size(a GOPAddr) (int64, bool) {
	n, ok := m[a]
	return n, ok
}

// All returns the map itself.
func (m StaticSizes) All() map[GOPAddr]int64 { return m }

// ExpectReader is implemented by backends that can use a caller's
// expected-size hint to fail over past stale replicas (see
// Ring.ReadGOPExpect). Callers discover it through the wrap chain
// the way AsScrubber does; Instrumented forwards it.
type ExpectReader interface {
	ReadGOPExpect(video, physDir string, seq int, want int64) ([]byte, error)
}

// Scrubber is implemented by backends that keep redundant copies and can
// check and repair them. The Ring is the one implementation; callers
// discover it through AsScrubber so metrics wrappers (Instrumented) and
// user shells stay transparent.
type Scrubber interface {
	// Scrub runs one check-and-repair pass; see Ring.Scrub.
	Scrub(expect SizeOracle) (ScrubStats, error)
	// ClusterStats snapshots placement and health counters.
	ClusterStats() ClusterStats
}

// AsScrubber returns the nearest Scrubber in b's wrap chain (chasing
// Unwrap like errors.Unwrap), or nil when the backend keeps no replicas.
func AsScrubber(b Backend) Scrubber {
	for b != nil {
		if sc, ok := b.(Scrubber); ok {
			return sc
		}
		u, ok := b.(interface{ Unwrap() Backend })
		if !ok {
			return nil
		}
		b = u.Unwrap()
	}
	return nil
}

// scrubPass walks every stored GOP address, determines its
// authoritative size, and re-copies missing or wrong-sized replicas onto
// their placement members from a healthy copy. The authoritative size
// is the oracle's (the catalog's expectation) when some copy actually
// has it; otherwise the largest stored copy wins — the heuristic for
// standalone use (expect == nil) and the graceful fallback when the
// catalog and every copy disagree (then consistent replicas are left
// alone rather than churned).
//
// The catalog snapshot address (CatalogSnapshotVideo) is skipped
// entirely: Maintain rewrites it wholesale every pass and the oracle
// never describes it, so "repairing" it would only churn against the
// writer.
//
// The pass is safe to run concurrently with reads and writes: repairs
// go through the same atomic per-member writes as foreground traffic,
// so readers never observe a torn GOP. Two races are tolerated and
// benign: a GOP evicted mid-scrub is skipped once every source read
// misses, and a repair can momentarily resurrect a just-deleted GOP
// file (the catalog no longer references it; the next scrub skips it as
// an orphan and DeletePhysical still reclaims it).
//
// The error joins per-member operational failures; a nonzero
// Unrecoverable count is reported in the stats, not as an error.
func (r *Ring) scrubPass(expect SizeOracle) (ScrubStats, error) {
	type copyInfo struct {
		node int
		size int64
	}
	copies := make(map[GOPAddr][]copyInfo)
	var errs []error
	for i, node := range r.nodes {
		err := node.Walk(func(video, physDir string, seq int, size int64) error {
			if video == CatalogSnapshotVideo {
				return nil
			}
			a := GOPAddr{video, physDir, seq}
			copies[a] = append(copies[a], copyInfo{i, size})
			return nil
		})
		if err != nil {
			// A member whose tree cannot even be walked is degraded; keep
			// scrubbing the others — its GOPs repair FROM the healthy
			// members, not from it.
			r.noteResult(i, err)
			errs = append(errs, r.nodeErr(i, err))
		}
	}

	var st ScrubStats
	for a, cs := range copies {
		st.Checked++
		var largest int64
		for _, c := range cs {
			if c.size > largest {
				largest = c.size
			}
		}
		want := largest
		trustOracle := false
		if expect != nil {
			w, ok := expect.Size(a)
			if !ok {
				st.Orphans++
				continue
			}
			// Trust the catalog only when some copy can actually supply
			// that size; otherwise fall back to largest-copy-wins so
			// consistent (if stale-sized) replicas are not counted lost.
			for _, c := range cs {
				if c.size == w {
					want, trustOracle = w, true
					break
				}
			}
		}
		have := make(map[int]int64, len(cs))
		for _, c := range cs {
			have[c.node] = c.size
		}
		var needs []int
		sources := make([]int, 0, len(cs))
		for _, i := range r.placement(a.Video, a.PhysDir, a.Seq) {
			if sz, ok := have[i]; ok && sz == want {
				sources = append(sources, i)
			} else {
				needs = append(needs, i)
			}
		}
		if len(needs) == 0 {
			continue
		}
		// Copies stranded on non-placement members (an earlier replicas
		// setting) can still seed a repair.
		for _, c := range cs {
			if c.size == want && !contains(sources, c.node) && !contains(needs, c.node) {
				sources = append(sources, c.node)
			}
		}
		var data []byte
		found := false
		sawMissing := false
		for _, src := range sources {
			d, err := r.nodes[src].ReadGOP(a.Video, a.PhysDir, a.Seq)
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					sawMissing = true // likely deleted mid-scrub
				} else {
					r.noteResult(src, err)
					errs = append(errs, r.nodeErr(src, err))
				}
				continue
			}
			data, found = d, true
			break
		}
		if !found {
			if len(sources) > 0 && sawMissing {
				continue // every copy vanished: evicted mid-scrub, not lost
			}
			st.Unrecoverable++
			continue
		}
		// Re-confirm the live expectation immediately before any repair
		// write: a GOP rewritten (or evicted) since it was sized must not
		// have its fresh copies overwritten from a now-stale source — the
		// next pass sees the settled state and repairs correctly.
		if trustOracle {
			if w, ok := expect.Size(a); !ok || w != want {
				continue
			}
		}
		for _, i := range needs {
			if err := r.nodes[i].WriteGOP(a.Video, a.PhysDir, a.Seq, data); err != nil {
				r.noteResult(i, err)
				errs = append(errs, r.nodeErr(i, err))
				continue
			}
			r.noteResult(i, nil)
			st.Repaired++
		}
	}

	// Addresses the catalog expects but NO member holds: total loss —
	// the walk cannot see them, so they are enumerated from the oracle.
	// A live re-probe filters GOPs written after the walk; a GOP evicted
	// after the oracle snapshot still over-counts transiently (see the
	// Unrecoverable field doc).
	var known map[GOPAddr]int64
	if expect != nil {
		known = expect.All()
	}
	for a := range known {
		if _, held := copies[a]; held {
			continue
		}
		// Live-confirm the catalog still expects the address: eviction
		// may have removed it since the All() snapshot.
		if _, ok := expect.Size(a); !ok {
			continue
		}
		st.Checked++
		alive := false
		for _, i := range r.placement(a.Video, a.PhysDir, a.Seq) {
			if _, err := r.nodes[i].GOPSize(a.Video, a.PhysDir, a.Seq); err == nil {
				alive = true
				break
			}
		}
		if !alive {
			st.Unrecoverable++
		}
	}

	return st, errors.Join(errs...)
}

// contains reports whether xs contains x (placements are tiny; linear
// scan beats a map).
func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
