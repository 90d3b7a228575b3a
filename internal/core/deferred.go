package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"time"

	"repro/internal/codec"
	"repro/internal/lossless"
	"repro/internal/storage"
)

// This file implements deferred compression (Section 5.2): when a video's
// stored size exceeds a threshold fraction of its budget, uncompressed
// cache entries are losslessly compressed — last-in-eviction-order first
// (the entry least likely to be evicted) — at a level that scales linearly
// with the remaining budget.

// deferredPressureLocked performs one deferred-compression step if the
// video is over its activation threshold. It is invoked by uncompressed
// reads, after writes, and by the background maintenance loop. Caller
// holds the video's lock.
func (s *Store) deferredPressureLocked(vs *videoState) error {
	v := vs.meta
	if s.opts.DisableDeferred || v.Budget <= 0 {
		return nil
	}
	used := vs.totalBytes()
	if float64(used) < s.opts.DeferredThreshold*float64(v.Budget) {
		return nil
	}
	remaining := 1 - float64(used)/float64(v.Budget)
	level := lossless.LevelForBudget(remaining)
	_, err := s.compressOneLocked(vs, level)
	return err
}

// DeferredLevel reports the compression level the controller would use for
// the video right now (Figure 13 instrumentation); 0 means deferred
// compression is currently inactive. Safe for concurrent use.
func (s *Store) DeferredLevel(video string) int {
	vs := s.acquire(video)
	if vs == nil {
		return 0
	}
	defer vs.mu.Unlock()
	v := vs.meta
	if s.opts.DisableDeferred || v.Budget <= 0 {
		return 0
	}
	used := vs.totalBytes()
	if float64(used) < s.opts.DeferredThreshold*float64(v.Budget) {
		return 0
	}
	return lossless.LevelForBudget(1 - float64(used)/float64(v.Budget))
}

// compressOneLocked losslessly compresses the uncompressed GOP least
// likely to be evicted (highest LRU_VSS score). Returns whether any entry
// was compressed. Caller holds the video's lock.
func (s *Store) compressOneLocked(vs *videoState, level int) (bool, error) {
	v := vs.meta
	var cands []evictCandidate
	for _, p := range vs.phys {
		if p.Codec != codec.Raw {
			continue
		}
		n := len(p.GOPs)
		for i := range p.GOPs {
			g := &p.GOPs[i]
			if g.Lossless != 0 || g.Joint != nil || g.DupOf != nil {
				continue // already compressed or marked incompressible
			}
			pos := i
			if n-1-i < pos {
				pos = n - 1 - i
			}
			score := float64(g.LRU) + s.opts.Gamma*float64(pos) - s.opts.Zeta*float64(s.redundancyLocked(vs, p, g))
			cands = append(cands, evictCandidate{phys: p, seq: g.Seq, score: score})
		}
	}
	if len(cands) == 0 {
		return false, nil
	}
	c := slices.MinFunc(cands, func(a, b evictCandidate) int {
		return cmp.Or(cmp.Compare(b.score, a.score), a.tieBreak(b))
	})
	g := findGOP(c.phys, c.seq)
	data, err := s.readGOP(context.Background(), v.Name, c.phys.Dir, g.Seq, g.Bytes)
	if err != nil {
		return false, err
	}
	block, err := lossless.Recompress(data, level)
	if err != nil {
		return false, err
	}
	if len(block) >= len(data) {
		// Incompressible; mark with level so it is not retried forever.
		g.Lossless = -1
		return false, s.savePhys(v.Name, c.phys)
	}
	if err := s.files.WriteGOP(v.Name, c.phys.Dir, g.Seq, block); err != nil {
		return false, err
	}
	g.Lossless = level
	g.Bytes = int64(len(block))
	return true, s.savePhys(v.Name, c.phys)
}

// backfillBudget bounds how many GOPs one Maintain pass summarizes per
// video: the pass holds the video's lock, so backfilling a large
// pre-summary store must stay incremental rather than stall readers for
// one long pass.
const backfillBudget = 16

// backfillSummariesLocked computes feature summaries for original GOPs
// that lack one — stores written before summaries existed, ingest
// decode-back failures, and GOPs whose summaries were invalidated by
// joint compression or duplicate elision. Each GOP is decoded through
// the same snapshot machinery predicate reads use (eagerly, under the
// held lock — the compressOneLocked idiom: CPU work runs under the video
// lock and never touches workSem, which a lock-holder must not acquire),
// so the recomputed bounds are exact over the reconstructed pixels
// queries decode. GOPs whose references escape this video (cross-video
// joint partners or duplicate targets) are skipped and stay summaryless:
// predicate reads keep decoding them conservatively. Caller holds the
// video's lock.
func (s *Store) backfillSummariesLocked(vs *videoState) error {
	if s.opts.DisableSummaries {
		return nil
	}
	p := vs.original()
	if p == nil {
		return nil
	}
	held := map[string]*videoState{vs.meta.Name: vs}
	filled := 0
	for i := range p.GOPs {
		if filled >= backfillBudget {
			break
		}
		g := &p.GOPs[i]
		if g.Summary != nil {
			continue
		}
		c := &snapCollector{ctx: context.Background(), stats: &ReadStats{}, eager: true}
		snap, err := s.snapshotGOP(held, vs, p, g, c)
		if err != nil {
			continue
		}
		frames, _, _, err := decodeSnap(snap, 0, -1)
		if err != nil {
			continue
		}
		g.Summary = summarizeFrames(frames)
		filled++
	}
	if filled == 0 {
		return nil
	}
	return s.savePhys(vs.meta.Name, p)
}

// tempSweepAge is how old a crash-orphaned write temp must be before
// maintenance reclaims it. Live atomicWrite temps exist for
// milliseconds; an hour leaves a colossal safety margin while still
// reclaiming crash leftovers on the first maintenance pass after them.
const tempSweepAge = time.Hour

// Maintain runs one background maintenance pass over every video:
// deferred compression pressure, physical video compaction, and summary
// backfill, then a sweep of crash-orphaned write temp files (unique temp
// names mean no later write ever renames an orphan away, and doing the
// full-tree walk here keeps it off the open and foreground paths), and
// finally — when the backend keeps redundant copies — a replication
// scrub that drains the ring's write-repair journal and re-copies
// missing or stale replicas from a healthy copy, so a briefly-degraded
// shard root or node converges back to full R-way replication
// (ScrubStats are surfaced via ClusterStats and the vssd /metrics
// cluster section). The paper runs maintenance "in a background thread when no
// other requests are being executed" and "periodically and
// non-quiescently". It holds at most one video's lock at a time, so it
// never blocks foreground reads and writes of other videos.
//
// Failures are contained per video and per phase: a video whose pages
// persistently fail must not stop the repair of every other video, the
// sweep, the scrub, or the catalog backup. Every phase runs, and the
// errors return joined.
func (s *Store) Maintain() error {
	var errs []error
	for _, name := range s.videoNames() {
		if err := s.maintainVideo(name); err != nil {
			errs = append(errs, fmt.Errorf("core: maintain %s: %w", name, err))
		}
	}
	// The scrub must run even when the temp sweep fails: a root degraded
	// enough to error the sweep is exactly the situation whose lost
	// replicas the scrub re-copies onto the healthy roots (Scrub itself
	// tolerates unwalkable shards). The catalog snapshot
	// (Options.SnapshotCatalog) goes last so the replicated copy reflects
	// this pass's compaction and repairs.
	errs = append(errs, s.files.SweepTemps(tempSweepAge), s.scrub(), s.snapshotCatalog())
	return errors.Join(errs...)
}

// maintainVideo runs the per-video phases of Maintain under the video's
// lock, each one whether or not an earlier one failed.
func (s *Store) maintainVideo(name string) error {
	vs := s.acquire(name)
	if vs == nil {
		return nil // deleted while we iterated
	}
	defer vs.mu.Unlock()
	deferredErr := s.deferredPressureLocked(vs)
	_, compactErr := s.compactLocked(vs)
	return errors.Join(deferredErr, compactErr, s.backfillSummariesLocked(vs))
}

// snapshotCatalog replicates the metadata catalog into the storage
// backend when Options.SnapshotCatalog is set: snapshot the catalog (WAL
// folded in, so the snapshot alone is full state), then write the bytes
// as a GOP at the reserved storage.CatalogSnapshotVideo address. The
// write rides the backend's ordinary path — fan-out, write-repair
// journal, everything — so on a replicated fleet every replica node ends
// up holding the catalog. RestoreCatalog is the inverse.
func (s *Store) snapshotCatalog() error {
	if !s.opts.SnapshotCatalog {
		return nil
	}
	data, err := s.cat.SnapshotBytes()
	if err != nil {
		return err
	}
	return s.files.WriteGOP(storage.CatalogSnapshotVideo, storage.CatalogSnapshotDir, 0, data)
}

// StartBackground launches the maintenance loop at the given interval and
// returns a stop function. The loop runs concurrently with foreground
// operations (per-video locking keeps them from serializing store-wide).
func (s *Store) StartBackground(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if err := s.Maintain(); err != nil {
					slog.Error("core: background maintenance pass failed", "err", err)
				}
			}
		}
	}()
	return func() { close(done) }
}
