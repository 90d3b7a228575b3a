package storage

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Ring is the one replicated composite Backend: it places every GOP on
// R of N member stores by a stable hash of the GOP's logical address
// (video, physDir, seq), fans writes out in parallel, fails reads over
// to surviving replicas, and repairs out-of-sync copies — first
// opportunistically from a write-repair journal (journal.go), then
// authoritatively from full scrub passes (scrub.go, repair.go).
//
// Members are either localfs roots (OpenSharded, OpenShardedReplicated:
// one Store per root, so the on-disk layout is N independent Figure-2
// trees) or remote vssd nodes (internal/router dials them into Remote
// members). Which members hold a GOP is a pure function of its address
// and the member list, never of write order, so any process that opens
// the same members in the same ORDER sees the same placement; the
// member list is part of the store's identity.
//
// Replication (R > 1) places each GOP on its primary member plus the
// R-1 ring successors:
//
//   - Writes fan out to every replica in parallel. The FIRST success
//     makes the write durable; members that missed the write are
//     journaled for the next Repair pass and, failing that, restored by
//     the next scrub, so a briefly-degraded member costs latency on its
//     GOPs, not data.
//   - Reads (ReadGOP, GOPSize) fail over through the replicas in
//     placement order. Every per-member failure feeds an error counter;
//     a member failing repeatedly (demoteAfter consecutive errors) is
//     demoted to last resort in the failover order until an operation
//     against it succeeds again, so a flapping member stops taxing every
//     read that hashes to it.
//   - Scrub walks all placements and re-copies missing or wrong-sized
//     replicas from a healthy copy, restoring full replication after a
//     member is wiped or replaced.
//
// Growing replicas on an existing store is safe: the primary of every
// address is unchanged (R placements extend the R-1 placements), so
// existing GOPs stay readable and the first scrub backfills the new
// replicas. Changing the number or order of members is NOT safe.
//
// Failure model: with R = 1 a degraded member (unmounted disk, dead
// node) surfaces errors only on operations whose GOPs hash to it; with
// R > 1 those operations keep working too, served by the surviving
// replicas. Whole-video operations (DeletePhysical, DeleteVideo,
// SweepTemps) fan out to every member in parallel and join errors.
type Ring struct {
	name     string
	nodes    []Backend
	labels   []string // member identities for health rows and error tags
	replicas int

	health    []nodeHealth
	failovers atomic.Int64
	journal   *journal

	repairMu       sync.Mutex // serializes Repair passes
	repairCycles   atomic.Int64
	repaired       atomic.Int64
	repairFailures atomic.Int64

	scrubMu   sync.Mutex
	scrubs    int64
	lastScrub ScrubStats
}

// demoteAfter is the consecutive-failure streak at which a member is
// demoted to last resort in the read failover order. One success
// re-promotes it, so a recovered member returns to service without
// operator action.
const demoteAfter = 3

// nodeHealth tracks one member's failure counters: errors is cumulative,
// streak counts consecutive failures and resets on any success.
type nodeHealth struct {
	errors atomic.Int64
	streak atomic.Int64
}

// NewRing builds a Ring over arbitrary member stores. labels name the
// members in health rows and error tags; nil selects "node-<i>",
// otherwise it must match nodes in length. replicas < 1 means 1;
// replicas must not exceed the number of members.
func NewRing(nodes []Backend, labels []string, replicas int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("storage: ring needs at least one member")
	}
	if labels == nil {
		labels = make([]string, len(nodes))
		for i := range labels {
			labels[i] = fmt.Sprintf("node-%d", i)
		}
	}
	if len(labels) != len(nodes) {
		return nil, fmt.Errorf("storage: %d labels for %d ring members", len(labels), len(nodes))
	}
	labels = slices.Clone(labels)
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(nodes) {
		return nil, fmt.Errorf("storage: %d replicas need %d distinct members, have %d", replicas, replicas, len(nodes))
	}
	return &Ring{
		name:     "cluster",
		nodes:    nodes,
		labels:   labels,
		replicas: replicas,
		health:   make([]nodeHealth, len(nodes)),
		journal:  newJournal(),
	}, nil
}

// OpenSharded creates (if needed) and opens one localfs store per root
// and rings them with no replication (every GOP on exactly one root).
func OpenSharded(roots []string) (*Ring, error) {
	return OpenShardedReplicated(roots, 1)
}

// OpenShardedReplicated is OpenSharded with R-way replication: each GOP
// is kept on replicas distinct roots (primary plus ring successors).
// The root paths label the members.
func OpenShardedReplicated(roots []string, replicas int) (*Ring, error) {
	nodes := make([]Backend, len(roots))
	for i, root := range roots {
		s, err := Open(root)
		if err != nil {
			return nil, fmt.Errorf("storage: shard %d: %w", i, err)
		}
		nodes[i] = s
	}
	r, err := NewRing(nodes, roots, replicas)
	if err != nil {
		return nil, err
	}
	r.name = "sharded"
	return r, nil
}

// Name identifies the backend kind: "sharded" over localfs roots,
// "cluster" over arbitrary members.
func (r *Ring) Name() string { return r.name }

// Nodes returns the number of ring members.
func (r *Ring) Nodes() int { return len(r.nodes) }

// Replicas returns the number of copies kept of every GOP.
func (r *Ring) Replicas() int { return r.replicas }

// Ping probes every member that has a health endpoint and joins the
// failures — the router daemon's startup readiness check.
func (r *Ring) Ping(ctx context.Context) error {
	var errs []error
	for i, n := range r.nodes {
		p, ok := n.(interface{ Ping(context.Context) error })
		if !ok {
			continue
		}
		if err := p.Ping(ctx); err != nil {
			errs = append(errs, r.nodeErr(i, err))
		}
	}
	return errors.Join(errs...)
}

// nodeOf maps a GOP address to its primary member (stable FNV-1a hash).
func (r *Ring) nodeOf(video, physDir string, seq int) int {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s\x00%s\x00%d", video, physDir, seq)
	return int(h.Sum32() % uint32(len(r.nodes)))
}

// placement maps a GOP address to the members holding its replicas: the
// primary followed by its ring successors. The R = 1 placement is a
// prefix of every larger R's, which is what makes raising -replicas on
// an existing store safe.
func (r *Ring) placement(video, physDir string, seq int) []int {
	p := make([]int, r.replicas)
	first := r.nodeOf(video, physDir, seq)
	for i := range p {
		p[i] = (first + i) % len(r.nodes)
	}
	return p
}

// readOrder returns the placement reordered for failover: healthy
// members in placement order first, demoted members last.
func (r *Ring) readOrder(p []int) []int {
	if len(p) == 1 {
		return p
	}
	order := make([]int, 0, len(p))
	var demoted []int
	for _, i := range p {
		if r.health[i].streak.Load() >= demoteAfter {
			demoted = append(demoted, i)
		} else {
			order = append(order, i)
		}
	}
	return append(order, demoted...)
}

// noteResult folds one member operation's outcome into its health
// counters; a success re-promotes a demoted member.
func (r *Ring) noteResult(i int, err error) {
	if err == nil {
		r.health[i].streak.Store(0)
		return
	}
	r.health[i].errors.Add(1)
	r.health[i].streak.Add(1)
}

// nodeErr tags an error with the member it came from, so a degraded
// member is identifiable per GOP. The chain (fs.ErrNotExist etc.) is
// preserved for errors.Is.
func (r *Ring) nodeErr(i int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("node %s: %w", r.labels[i], err)
}

// WriteGOP fans the write out to every replica in parallel. The first
// success makes the write durable; members that missed the write are
// journaled for the next Repair pass (then, failing that, the next
// scrub). Only when every replica fails does the write itself fail —
// and then nothing is journaled, because no copy exists to repair from.
func (r *Ring) WriteGOP(video, physDir string, seq int, data []byte) error {
	p := r.placement(video, physDir, seq)
	if len(p) == 1 {
		i := p[0]
		err := r.nodes[i].WriteGOP(video, physDir, seq, data)
		r.noteResult(i, err)
		return r.nodeErr(i, err)
	}
	errs := make([]error, len(p))
	var wg sync.WaitGroup
	for k, i := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := r.nodes[i].WriteGOP(video, physDir, seq, data)
			r.noteResult(i, err)
			errs[k] = r.nodeErr(i, err)
		}()
	}
	wg.Wait()
	ok := false
	for _, err := range errs {
		if err == nil {
			ok = true
			break
		}
	}
	if !ok {
		return errors.Join(errs...)
	}
	addr := GOPAddr{Video: video, PhysDir: physDir, Seq: seq}
	for k, i := range p {
		if errs[k] != nil {
			r.journal.add(addr, i)
		}
	}
	return nil
}

// errWrongSize marks a replica whose copy exists but is not the size
// the caller expects: stale after a rewrite that missed its member.
// Like a missing replica, it is blamed on the member only when another
// replica can actually serve the expected bytes — if every replica
// "mismatches", the caller's expectation is what's stale.
var errWrongSize = errors.New("storage: replica is not the expected size")

// readReplicas runs op against a GOP's replicas in failover order until
// one succeeds. Health accounting distinguishes a degraded replica from
// a genuinely-missing GOP: a fs.ErrNotExist (or wrong-size) result is
// charged to a member only when ANOTHER replica turns out to have the
// bytes — if every replica reports not-exist the GOP is simply gone
// (evicted under a racing read) and nobody is blamed. A member caught
// out of sync that way is journaled, so the copy a failover read
// discovered missing is restored by the next Repair pass instead of
// waiting for a scrub. Other failures always count.
//
// When ctx carries a request trace, every failed attempt and every
// off-primary success is recorded as a span on it, so /debug/traces
// shows exactly which members a failover read visited and how long
// each hop cost.
func (r *Ring) readReplicas(ctx context.Context, addr GOPAddr, p []int, op func(node int) error) error {
	if len(p) == 1 {
		i := p[0]
		err := op(i)
		// A plain miss on a replica-less store is indistinguishable from
		// legitimate eviction; don't poison the health counter.
		if err == nil || !errors.Is(err, fs.ErrNotExist) {
			r.noteResult(i, err)
		}
		return r.nodeErr(i, err)
	}
	tr := obs.FromContext(ctx)
	var errs []error
	var missing []int
	for _, i := range r.readOrder(p) {
		var attemptStart time.Time
		if tr != nil {
			attemptStart = time.Now()
		}
		err := op(i)
		if err == nil {
			r.noteResult(i, nil)
			for _, m := range missing {
				r.noteResult(m, fmt.Errorf("out of sync"))
				r.journal.add(addr, m)
			}
			if i != p[0] {
				r.failovers.Add(1)
				if tr != nil {
					tr.AddSpan(obs.StageFetch, "failover to "+r.labels[i], attemptStart, time.Since(attemptStart), nil)
				}
			}
			return nil
		}
		if tr != nil {
			tr.AddSpan(obs.StageFetch, "fetch "+r.labels[i], attemptStart, time.Since(attemptStart), err)
		}
		if errors.Is(err, fs.ErrNotExist) || errors.Is(err, errWrongSize) {
			missing = append(missing, i)
		} else {
			r.noteResult(i, err)
		}
		errs = append(errs, r.nodeErr(i, err))
	}
	return errors.Join(errs...)
}

// ReadGOP reads one GOP, failing over through its replicas; see
// readReplicas for the health accounting.
func (r *Ring) ReadGOP(video, physDir string, seq int) ([]byte, error) {
	return r.ReadGOPContext(context.Background(), video, physDir, seq)
}

// ReadGOPContext is ReadGOP with the caller's context flowing to every
// member attempt (trace header on the wire, failover hops recorded as
// spans on the context's trace, remote retries abandoned on cancel).
func (r *Ring) ReadGOPContext(ctx context.Context, video, physDir string, seq int) ([]byte, error) {
	var data []byte
	addr := GOPAddr{Video: video, PhysDir: physDir, Seq: seq}
	err := r.readReplicas(ctx, addr, r.placement(video, physDir, seq), func(i int) error {
		var err error
		data, err = ReadGOPCtx(ctx, r.nodes[i], video, physDir, seq)
		return err
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// ReadGOPExpect reads one GOP, failing over past replicas whose copy is
// not the expected size — the copy a rewrite left stale on a member
// that missed the write; the stale members are journaled for repair. If
// NO replica has the expected size, the expectation itself is presumed
// stale (the GOP was legitimately rewritten after the caller
// snapshotted its metadata) and the read falls back to plain failover,
// so the caller's own staleness handling sees the live bytes. want < 0
// means no expectation.
func (r *Ring) ReadGOPExpect(video, physDir string, seq int, want int64) ([]byte, error) {
	return r.ReadGOPExpectContext(context.Background(), video, physDir, seq, want)
}

// ReadGOPExpectContext is ReadGOPExpect with the caller's context, as
// ReadGOPContext.
func (r *Ring) ReadGOPExpectContext(ctx context.Context, video, physDir string, seq int, want int64) ([]byte, error) {
	if r.replicas == 1 || want < 0 {
		return r.ReadGOPContext(ctx, video, physDir, seq)
	}
	addr := GOPAddr{Video: video, PhysDir: physDir, Seq: seq}
	var data []byte
	err := r.readReplicas(ctx, addr, r.placement(video, physDir, seq), func(i int) error {
		d, err := ReadGOPCtx(ctx, r.nodes[i], video, physDir, seq)
		if err != nil {
			return err
		}
		if int64(len(d)) != want {
			return fmt.Errorf("%d bytes, want %d: %w", len(d), want, errWrongSize)
		}
		data = d
		return nil
	})
	if err == nil {
		return data, nil
	}
	if errors.Is(err, errWrongSize) {
		return r.ReadGOPContext(ctx, video, physDir, seq)
	}
	return nil, err
}

// GOPSize returns the stored size of one GOP from the first healthy
// replica in failover order.
func (r *Ring) GOPSize(video, physDir string, seq int) (int64, error) {
	var n int64
	addr := GOPAddr{Video: video, PhysDir: physDir, Seq: seq}
	err := r.readReplicas(context.Background(), addr, r.placement(video, physDir, seq), func(i int) error {
		var err error
		n, err = r.nodes[i].GOPSize(video, physDir, seq)
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// DeleteGOP removes every replica of one GOP, after purging any pending
// journal repair so it cannot resurrect the GOP. Replicas go in REVERSE
// placement order: a concurrent failover read racing the delete then
// either serves the still-present primary or finds every replica gone —
// it can never miss the primary yet hit a successor, which would charge
// the healthy primary a phantom out-of-sync error ("evictions blame
// nobody"). Missing replicas are not an error (eviction and crash
// recovery may race), but a replica that cannot be removed fails the
// delete — leaving it behind silently would let a later scrub resurrect
// the GOP.
func (r *Ring) DeleteGOP(video, physDir string, seq int) error {
	addr := GOPAddr{Video: video, PhysDir: physDir, Seq: seq}
	r.journal.forget(func(a GOPAddr) bool { return a == addr })
	var errs []error
	p := r.placement(video, physDir, seq)
	for k := len(p) - 1; k >= 0; k-- {
		i := p[k]
		err := r.nodes[i].DeleteGOP(video, physDir, seq)
		r.noteResult(i, err)
		if err != nil {
			errs = append(errs, r.nodeErr(i, err))
		}
	}
	return errors.Join(errs...)
}

// LinkGOP makes dst share src's bytes on every dst replica: a
// member-local link where a dst member also holds a src replica (a hard
// link on a localfs root), a routed copy otherwise — the same fallback a
// link-less filesystem gets. Like WriteGOP, the first replica success
// makes the link durable; failed destinations are journaled.
func (r *Ring) LinkGOP(video, srcDir string, srcSeq int, dstVideo, dstDir string, dstSeq int) error {
	onSrc := make(map[int]bool, r.replicas)
	for _, i := range r.placement(video, srcDir, srcSeq) {
		onSrc[i] = true
	}
	// The copy fallback reads the source once, via the normal failover
	// path, lazily — an all-local-links call never touches it.
	var data []byte
	var dataErr error
	fetched := false
	fetch := func() ([]byte, error) {
		if !fetched {
			fetched = true
			data, dataErr = r.ReadGOP(video, srcDir, srcSeq)
		}
		return data, dataErr
	}
	var errs []error
	ok := false
	var failed []int
	for _, d := range r.placement(dstVideo, dstDir, dstSeq) {
		if onSrc[d] {
			err := r.nodes[d].LinkGOP(video, srcDir, srcSeq, dstVideo, dstDir, dstSeq)
			if err == nil {
				r.noteResult(d, nil)
				ok = true
				continue
			}
			if !errors.Is(err, fs.ErrNotExist) {
				r.noteResult(d, err)
			}
			// The member's src replica may be missing or the member
			// degraded; fall through to copying from a healthy replica.
		}
		b, err := fetch()
		if err != nil {
			errs = append(errs, err)
			failed = append(failed, d)
			continue
		}
		if err := r.nodes[d].WriteGOP(dstVideo, dstDir, dstSeq, b); err != nil {
			r.noteResult(d, err)
			errs = append(errs, r.nodeErr(d, err))
			failed = append(failed, d)
			continue
		}
		r.noteResult(d, nil)
		ok = true
	}
	if !ok {
		return errors.Join(errs...)
	}
	addr := GOPAddr{Video: dstVideo, PhysDir: dstDir, Seq: dstSeq}
	for _, d := range failed {
		r.journal.add(addr, d)
	}
	return nil
}

// fanOut runs fn against every member in parallel and joins the tagged
// errors. fn does its own health accounting.
func (r *Ring) fanOut(fn func(i int, node Backend) error) error {
	errs := make([]error, len(r.nodes))
	var wg sync.WaitGroup
	for i, node := range r.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.nodeErr(i, fn(i, node))
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// DeletePhysical removes one physical video from every member.
func (r *Ring) DeletePhysical(video, physDir string) error {
	r.journal.forget(func(a GOPAddr) bool {
		return a.Video == video && a.PhysDir == physDir
	})
	return r.fanOut(func(i int, node Backend) error {
		err := node.DeletePhysical(video, physDir)
		r.noteResult(i, err)
		return err
	})
}

// DeleteVideo removes a logical video's data from every member.
func (r *Ring) DeleteVideo(video string) error {
	r.journal.forget(func(a GOPAddr) bool { return a.Video == video })
	return r.fanOut(func(i int, node Backend) error {
		err := node.DeleteVideo(video)
		r.noteResult(i, err)
		return err
	})
}

// SweepTemps reclaims crash-orphaned temp files on every member that
// stages writes through temp files (localfs roots), in parallel; other
// members are left alone and their health untouched. See TempSweeper.
func (r *Ring) SweepTemps(olderThan time.Duration) error {
	return r.fanOut(func(_ int, node Backend) error {
		if ts, ok := node.(TempSweeper); ok {
			return ts.SweepTemps(olderThan)
		}
		return nil
	})
}

// Walk visits every GOP exactly once: under replication the same
// address exists on several members and only the first copy found (in
// member order) is reported. Members are walked sequentially — fn is
// not required to be concurrency-safe; within a member, order is
// unspecified as per the Backend contract.
func (r *Ring) Walk(fn func(video, physDir string, seq int, size int64) error) error {
	var seen map[GOPAddr]bool
	if r.replicas > 1 {
		seen = make(map[GOPAddr]bool)
	}
	for i, node := range r.nodes {
		err := node.Walk(func(video, physDir string, seq int, size int64) error {
			if seen != nil {
				a := GOPAddr{Video: video, PhysDir: physDir, Seq: seq}
				if seen[a] {
					return nil
				}
				seen[a] = true
			}
			return fn(video, physDir, seq, size)
		})
		if err != nil {
			return r.nodeErr(i, err)
		}
	}
	return nil
}
