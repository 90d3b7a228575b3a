package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// openReplicated builds the standard replication fixture: 4 roots under
// one temp dir, 2 copies of every GOP.
func openReplicated(t *testing.T) (*Ring, []string) {
	t.Helper()
	dir := t.TempDir()
	roots := make([]string, 4)
	for i := range roots {
		roots[i] = filepath.Join(dir, fmt.Sprintf("root%d", i))
	}
	s, err := OpenShardedReplicated(roots, 2)
	if err != nil {
		t.Fatal(err)
	}
	return s, roots
}

// payload returns a deterministic per-seq GOP payload.
func payload(seq int) []byte {
	return bytes.Repeat([]byte{byte('a' + seq%23)}, 128+seq)
}

// wipeRoot deletes one root's contents (the dead-disk-swapped-for-empty
// scenario: the directory exists and is writable, its data is gone).
func wipeRoot(t *testing.T, root string) {
	t.Helper()
	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
}

func TestOpenShardedReplicatedValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenShardedReplicated([]string{dir + "/a"}, 2); err == nil {
		t.Error("2 replicas over 1 root succeeded")
	}
	s, err := OpenShardedReplicated([]string{dir + "/a", dir + "/b"}, 0)
	if err != nil || s.Replicas() != 1 {
		t.Errorf("replicas<1 not clamped to 1: %v %d", err, s.Replicas())
	}
}

// TestReplicatedPlacement pins the placement contract: R distinct shards,
// primary first, and the R=1 placement a prefix of the R=2 one (what
// makes raising -replicas on an existing store safe).
func TestReplicatedPlacement(t *testing.T) {
	s, _ := openReplicated(t)
	for seq := 0; seq < 64; seq++ {
		p := s.placement("v", "p1", seq)
		if len(p) != 2 || p[0] == p[1] {
			t.Fatalf("seq %d: placement %v", seq, p)
		}
		if p[0] != s.nodeOf("v", "p1", seq) {
			t.Fatalf("seq %d: primary %d != shardOf %d", seq, p[0], s.nodeOf("v", "p1", seq))
		}
		if p[1] != (p[0]+1)%s.Nodes() {
			t.Fatalf("seq %d: successor %v", seq, p)
		}
	}
}

// TestReplicatedWriteFansOut verifies every write lands on both
// placement shards (shard-direct reads, not failover).
func TestReplicatedWriteFansOut(t *testing.T) {
	s, _ := openReplicated(t)
	for seq := 0; seq < 16; seq++ {
		if err := s.WriteGOP("v", "p1", seq, payload(seq)); err != nil {
			t.Fatal(err)
		}
		for _, i := range s.placement("v", "p1", seq) {
			got, err := s.nodes[i].ReadGOP("v", "p1", seq)
			if err != nil || !bytes.Equal(got, payload(seq)) {
				t.Fatalf("seq %d replica on shard %d: %v", seq, i, err)
			}
		}
	}
}

// TestReplicatedReadFailover is the headline failure drill: with
// replicas=2 over 4 roots, wiping ANY single root leaves every GOP
// readable and byte-identical, with the detours visible in the failover
// counter and the wiped shard's error counter.
func TestReplicatedReadFailover(t *testing.T) {
	s, roots := openReplicated(t)
	const n = 40
	for seq := 0; seq < n; seq++ {
		if err := s.WriteGOP("v", "p1", seq, payload(seq)); err != nil {
			t.Fatal(err)
		}
	}
	wipeRoot(t, roots[1])
	for seq := 0; seq < n; seq++ {
		got, err := s.ReadGOP("v", "p1", seq)
		if err != nil || !bytes.Equal(got, payload(seq)) {
			t.Fatalf("seq %d after root wipe: %v", seq, err)
		}
		if sz, err := s.GOPSize("v", "p1", seq); err != nil || sz != int64(len(payload(seq))) {
			t.Fatalf("seq %d size after root wipe: %d %v", seq, sz, err)
		}
	}
	st := s.ClusterStats()
	if st.Failovers == 0 {
		t.Error("no failovers recorded despite a wiped root")
	}
	if st.NodeHealth[1].Errors == 0 {
		t.Errorf("wiped shard not charged: %+v", st.NodeHealth)
	}
	for _, i := range []int{0, 2, 3} {
		if st.NodeHealth[i].Errors != 0 {
			t.Errorf("healthy shard %d charged: %+v", i, st.NodeHealth[i])
		}
	}
}

// TestReplicatedMissingGOPBlamesNobody: a GOP missing from EVERY replica
// is a legitimate miss (eviction races), not a shard failure — health
// counters must stay clean and the error chain must keep fs.ErrNotExist.
func TestReplicatedMissingGOPBlamesNobody(t *testing.T) {
	s, _ := openReplicated(t)
	if _, err := s.ReadGOP("v", "p1", 7); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing read error %v", err)
	}
	for i, h := range s.ClusterStats().NodeHealth {
		if h.Errors != 0 {
			t.Errorf("shard %d charged for a genuinely-missing GOP: %+v", i, h)
		}
	}
}

// TestScrubRepairsWipedRoot wipes one root and verifies a scrub restores
// every lost replica: every address is back on both placement shards,
// byte-identical, with Unrecoverable == 0.
func TestScrubRepairsWipedRoot(t *testing.T) {
	s, roots := openReplicated(t)
	const n = 40
	for seq := 0; seq < n; seq++ {
		if err := s.WriteGOP("v", "p1", seq, payload(seq)); err != nil {
			t.Fatal(err)
		}
	}
	wipeRoot(t, roots[2])
	st, err := s.Scrub(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Checked != n || st.Unrecoverable != 0 || st.Repaired == 0 {
		t.Fatalf("scrub stats %+v", st)
	}
	for seq := 0; seq < n; seq++ {
		for _, i := range s.placement("v", "p1", seq) {
			got, err := s.nodes[i].ReadGOP("v", "p1", seq)
			if err != nil || !bytes.Equal(got, payload(seq)) {
				t.Fatalf("seq %d replica on shard %d not restored: %v", seq, i, err)
			}
		}
	}
	if rep := s.ClusterStats(); rep.Scrubs != 1 || rep.LastScrub != st {
		t.Errorf("replication stats did not record the scrub: %+v", rep)
	}
	// A second scrub finds nothing to do.
	st, err = s.Scrub(nil)
	if err != nil || st.Repaired != 0 || st.Unrecoverable != 0 {
		t.Errorf("second scrub not a no-op: %+v %v", st, err)
	}
}

// TestScrubRepairsShortReplica truncates one replica in place (torn by a
// dying disk, not by our atomic writes) and verifies the scrub re-copies
// it from the intact copy — largest-copy-wins when no oracle is given.
func TestScrubRepairsShortReplica(t *testing.T) {
	s, roots := openReplicated(t)
	want := payload(3)
	if err := s.WriteGOP("v", "p1", 3, want); err != nil {
		t.Fatal(err)
	}
	victim := s.placement("v", "p1", 3)[1]
	path := filepath.Join(roots[victim], "v", "p1", "3.gop")
	if err := os.Truncate(path, int64(len(want)/2)); err != nil {
		t.Fatal(err)
	}
	st, err := s.Scrub(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repaired != 1 || st.Unrecoverable != 0 {
		t.Fatalf("scrub stats %+v", st)
	}
	got, err := s.nodes[victim].ReadGOP("v", "p1", 3)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("short replica not repaired: %v (%d bytes, want %d)", err, len(got), len(want))
	}
}

// TestScrubOracleBeatsLargestCopy pins the divergence rule that protects
// rewrites: when a GOP was rewritten smaller (deferred lossless
// compression) and one replica missed the write, the catalog's expected
// size — not the larger stale copy — decides which replica is healthy.
func TestScrubOracleBeatsLargestCopy(t *testing.T) {
	s, _ := openReplicated(t)
	stale := bytes.Repeat([]byte{'S'}, 200)
	fresh := bytes.Repeat([]byte{'F'}, 80)
	if err := s.WriteGOP("v", "p1", 5, stale); err != nil {
		t.Fatal(err)
	}
	// The rewrite reaches only the primary; the successor keeps the
	// stale 200-byte copy.
	p := s.placement("v", "p1", 5)
	if err := s.nodes[p[0]].WriteGOP("v", "p1", 5, fresh); err != nil {
		t.Fatal(err)
	}
	oracle := StaticSizes{GOPAddr{"v", "p1", 5}: int64(len(fresh))}
	st, err := s.Scrub(oracle)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repaired != 1 || st.Unrecoverable != 0 {
		t.Fatalf("scrub stats %+v", st)
	}
	for _, i := range p {
		got, err := s.nodes[i].ReadGOP("v", "p1", 5)
		if err != nil || !bytes.Equal(got, fresh) {
			t.Fatalf("shard %d holds %d bytes after oracle scrub, want fresh copy: %v", i, len(got), err)
		}
	}

	// Without the oracle the stale copy would have won; with an oracle
	// that disclaims the address entirely, the file is an orphan and the
	// divergence is left alone.
	if err := s.nodes[p[1]].WriteGOP("v", "p1", 5, stale); err != nil {
		t.Fatal(err)
	}
	st, err = s.Scrub(StaticSizes{})
	if err != nil || st.Orphans == 0 || st.Repaired != 0 {
		t.Fatalf("orphan scrub stats %+v %v", st, err)
	}
}

// TestScrubCountsTotalLoss: an address the oracle expects but NO shard
// holds must be counted unrecoverable — the walk can't see it, so only
// the oracle enumeration can report the loss.
func TestScrubCountsTotalLoss(t *testing.T) {
	s, _ := openReplicated(t)
	if err := s.WriteGOP("v", "p1", 0, payload(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteGOP("v", "p1", 1, payload(1)); err != nil {
		t.Fatal(err)
	}
	// Lose every copy of seq 1 behind the store's back.
	for _, i := range s.placement("v", "p1", 1) {
		if err := s.nodes[i].DeleteGOP("v", "p1", 1); err != nil {
			t.Fatal(err)
		}
	}
	oracle := StaticSizes{
		{"v", "p1", 0}: int64(len(payload(0))),
		{"v", "p1", 1}: int64(len(payload(1))),
	}
	st, err := s.Scrub(oracle)
	if err != nil {
		t.Fatal(err)
	}
	if st.Unrecoverable != 1 || st.Checked != 2 {
		t.Fatalf("scrub stats %+v, want the lost address counted unrecoverable", st)
	}
}

// TestReadGOPExpectSkipsStaleReplica pins the failover rule that keeps
// reads working inside the rewrite-divergence window: when the primary
// holds a stale (wrong-sized) copy, a size-hinted read serves the fresh
// replica instead of failing, and when NO replica matches the hint the
// caller's expectation is presumed stale and the live bytes win.
func TestReadGOPExpectSkipsStaleReplica(t *testing.T) {
	s, _ := openReplicated(t)
	stale := bytes.Repeat([]byte{'S'}, 200)
	fresh := bytes.Repeat([]byte{'F'}, 80)
	if err := s.WriteGOP("v", "p1", 9, fresh); err != nil {
		t.Fatal(err)
	}
	p := s.placement("v", "p1", 9)
	// A rewrite that "missed" the successor: primary stale, successor fresh.
	if err := s.nodes[p[0]].WriteGOP("v", "p1", 9, stale); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadGOPExpect("v", "p1", 9, int64(len(fresh)))
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("expect-read served %d bytes, want the fresh replica: %v", len(got), err)
	}
	// Plain read would have served the stale primary.
	got, err = s.ReadGOP("v", "p1", 9)
	if err != nil || !bytes.Equal(got, stale) {
		t.Fatalf("plain read: %v (%d bytes)", err, len(got))
	}
	// A hint nothing matches falls back to the live bytes.
	got, err = s.ReadGOPExpect("v", "p1", 9, 999)
	if err != nil || len(got) == 0 {
		t.Fatalf("mismatched-hint read: %v (%d bytes)", err, len(got))
	}
	// A missing GOP still reports not-exist, without the fallback re-read.
	if _, err := s.ReadGOPExpect("v", "p1", 99, 10); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing expect-read error %v", err)
	}
}

// TestReplicatedDemotion drives one shard into repeated failure and
// checks it demotes to last resort, then re-promotes on its first
// success.
func TestReplicatedDemotion(t *testing.T) {
	s, roots := openReplicated(t)
	// Replace root 3 with a regular file: every operation that needs its
	// directory tree now fails with ENOTDIR (a real failure, unlike a
	// clean not-exist).
	if err := os.RemoveAll(roots[3]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(roots[3], []byte("dead disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Find addresses placed on shard 3 and write until its streak passes
	// the demotion threshold. Writes still succeed: the other replica
	// takes them.
	wrote := 0
	for seq := 0; wrote < demoteAfter+1 && seq < 256; seq++ {
		if !contains(s.placement("v", "p1", seq), 3) {
			continue
		}
		if err := s.WriteGOP("v", "p1", seq, payload(seq)); err != nil {
			t.Fatalf("write with one dead shard: %v", err)
		}
		wrote++
	}
	st := s.ClusterStats()
	if !st.NodeHealth[3].Demoted || st.NodeHealth[3].Errors < demoteAfter {
		t.Fatalf("dead shard not demoted: %+v", st.NodeHealth[3])
	}
	if err := s.readOrderCheck(); err != nil {
		t.Error(err)
	}
	// Heal the root; the first successful operation re-promotes it.
	if err := os.Remove(roots[3]); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(roots[3], 0o755); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 256; seq++ {
		if contains(s.placement("v", "p2", seq), 3) {
			if err := s.WriteGOP("v", "p2", seq, payload(seq)); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if st := s.ClusterStats(); st.NodeHealth[3].Demoted {
		t.Errorf("healed shard still demoted: %+v", st.NodeHealth[3])
	}
}

// readOrderCheck asserts demoted shards sort after healthy ones for a
// placement that includes shard 3 (helper for TestReplicatedDemotion).
func (s *Ring) readOrderCheck() error {
	for seq := 0; seq < 256; seq++ {
		p := s.placement("v", "p1", seq)
		if !contains(p, 3) {
			continue
		}
		order := s.readOrder(p)
		if order[len(order)-1] != 3 {
			return fmt.Errorf("demoted shard 3 not last in read order %v (placement %v)", order, p)
		}
		return nil
	}
	return nil
}

// TestConcurrentScrubStress runs scrub passes against concurrent
// writers, readers, and deleters under the race detector: no data races,
// no torn reads (every successful read is some writer's complete
// payload), no spurious scrub failures.
func TestConcurrentScrubStress(t *testing.T) {
	s, _ := openReplicated(t)
	const (
		seqs     = 24
		rounds   = 30
		scrubs   = 10
		writers  = 3
		readers  = 3
		deleters = 1
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers+deleters+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for seq := 0; seq < seqs; seq++ {
					if err := s.WriteGOP("v", "p1", seq, payload(seq)); err != nil {
						errCh <- fmt.Errorf("write: %w", err)
						return
					}
				}
			}
		}()
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for seq := 0; seq < seqs; seq++ {
					got, err := s.ReadGOP("v", "p1", seq)
					if err != nil {
						if errors.Is(err, fs.ErrNotExist) {
							continue // deleted under us
						}
						errCh <- fmt.Errorf("read: %w", err)
						return
					}
					if !bytes.Equal(got, payload(seq)) {
						errCh <- fmt.Errorf("seq %d: torn read (%d bytes)", seq, len(got))
						return
					}
				}
			}
		}()
	}
	for d := 0; d < deleters; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := s.DeleteGOP("v", "p1", r%seqs); err != nil {
					errCh <- fmt.Errorf("delete: %w", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrubs; i++ {
			if _, err := s.Scrub(nil); err != nil {
				errCh <- fmt.Errorf("scrub: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
