package storage

import (
	"errors"
	"io/fs"
)

// This file is the ring's repair plane: the opportunistic journal
// drain (Repair, run on a short timer by the router daemon and at the
// head of every Scrub) and the authoritative full pass (Scrub, run by
// core.Store.Maintain through the Scrubber interface). The journal
// restores copies the ring watched go missing — within one repair
// cycle, no walk; the scrub restores everything else.

// Repair drains one batch of journaled (GOP, node) repairs: for each,
// the bytes are read from a healthy replica node and re-written to the
// node that missed them. Entries whose GOP no longer exists anywhere
// are dropped silently (the GOP was deleted or evicted after
// journaling); entries whose repair fails are re-queued up to their
// attempt budget. Returns the number of copies repaired this pass.
// Serialized internally; safe to call on a timer alongside foreground
// traffic.
func (r *Ring) Repair() (int, error) {
	r.repairMu.Lock()
	defer r.repairMu.Unlock()
	r.repairCycles.Add(1)
	repaired := 0
	var errs []error
	for _, e := range r.journal.drain(repairBatch) {
		data, ok, err := r.readForRepair(e)
		if err != nil {
			errs = append(errs, err)
		}
		if !ok {
			continue
		}
		if err := r.nodes[e.node].WriteGOP(e.addr.Video, e.addr.PhysDir, e.addr.Seq, data); err != nil {
			r.noteResult(e.node, err)
			r.repairFailures.Add(1)
			r.journal.requeue(e)
			errs = append(errs, r.nodeErr(e.node, err))
			continue
		}
		r.noteResult(e.node, nil)
		r.repaired.Add(1)
		repaired++
	}
	return repaired, errors.Join(errs...)
}

// readForRepair fetches the authoritative bytes for one journal entry
// from the GOP's placement nodes, skipping the repair target itself. ok
// is false when the entry should not be repaired now: every source
// misses (the GOP is gone — entry dropped) or every source errors
// (entry re-queued).
func (r *Ring) readForRepair(e entry) (data []byte, ok bool, err error) {
	sawError := false
	var errs []error
	for _, i := range r.placement(e.addr.Video, e.addr.PhysDir, e.addr.Seq) {
		if i == e.node {
			continue
		}
		d, rerr := r.nodes[i].ReadGOP(e.addr.Video, e.addr.PhysDir, e.addr.Seq)
		if rerr == nil {
			r.noteResult(i, nil)
			return d, true, nil
		}
		if errors.Is(rerr, fs.ErrNotExist) {
			continue // source genuinely has no copy; not the node's fault
		}
		sawError = true
		r.noteResult(i, rerr)
		errs = append(errs, r.nodeErr(i, rerr))
	}
	if sawError {
		// No healthy source reachable right now — try again later rather
		// than concluding the GOP is gone.
		r.repairFailures.Add(1)
		r.journal.requeue(e)
		return nil, false, errors.Join(errs...)
	}
	// Every source agrees the GOP does not exist: deleted or evicted
	// after journaling. The entry is resolved, not failed.
	return nil, false, nil
}

// Scrub runs one full check-and-repair pass over every member
// (scrubPass, scrub.go), after a Repair pass so known-missing copies are
// restored cheaply first. The drain's copies count in the pass's
// Repaired, so a pass reports every copy it restored whichever step
// restored it. The returned stats are recorded for ClusterStats.
func (r *Ring) Scrub(expect SizeOracle) (ScrubStats, error) {
	drained, rerr := r.Repair()
	st, serr := r.scrubPass(expect)
	st.Repaired += int64(drained)
	r.scrubMu.Lock()
	r.scrubs++
	r.lastScrub = st
	r.scrubMu.Unlock()
	return st, errors.Join(rerr, serr)
}

// ClusterStats snapshots the ring's health for the /metrics cluster
// section. Safe for concurrent use.
func (r *Ring) ClusterStats() ClusterStats {
	st := ClusterStats{
		Nodes:          len(r.nodes),
		Replicas:       r.replicas,
		Failovers:      r.failovers.Load(),
		JournalDepth:   r.journal.depth(),
		JournalDropped: r.journal.droppedCount(),
		RepairCycles:   r.repairCycles.Load(),
		Repaired:       r.repaired.Load(),
		RepairFailures: r.repairFailures.Load(),
	}
	st.NodeHealth = make([]NodeHealthStats, len(r.nodes))
	for i := range r.nodes {
		st.NodeHealth[i] = NodeHealthStats{
			Addr:    r.labels[i],
			Errors:  r.health[i].errors.Load(),
			Demoted: r.health[i].streak.Load() >= demoteAfter,
		}
	}
	r.scrubMu.Lock()
	st.Scrubs, st.LastScrub = r.scrubs, r.lastScrub
	r.scrubMu.Unlock()
	return st
}
