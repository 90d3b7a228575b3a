package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/storage"
)

// openReplicatedStore opens a store over 4 shard roots with 2-way
// replication under dir (fresh backend handle per call, like a process
// restart).
func openReplicatedStore(t *testing.T, dir string) *Store {
	t.Helper()
	backend, err := storage.OpenShardedReplicated(ShardRoots(dir, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{GOPFrames: 8, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// wipeRoot empties one shard root in place (dead disk swapped for an
// empty one).
func wipeRoot(t *testing.T, root string) {
	t.Helper()
	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
}

// replicaCounts returns, per GOP address, how many roots hold a copy.
func replicaCounts(t *testing.T, dir string) map[string]int {
	t.Helper()
	counts := make(map[string]int)
	for _, root := range ShardRoots(dir, 4) {
		shard, err := storage.Open(root)
		if err != nil {
			t.Fatal(err)
		}
		err = shard.Walk(func(video, physDir string, seq int, size int64) error {
			counts[fmt.Sprintf("%s/%s/%d", video, physDir, seq)]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return counts
}

// TestReplicatedStoreSurvivesRootLoss is the PR's acceptance drill end
// to end through the full store: with replicas=2 over 4 roots, deleting
// one root's contents leaves every read byte-identical to the healthy
// read, and one Maintain pass (which scrubs with the catalog as the
// size oracle) restores full 2-way replication with nothing
// unrecoverable.
func TestReplicatedStoreSurvivesRootLoss(t *testing.T) {
	dir := t.TempDir()
	s := openReplicatedStore(t, dir)
	writeVideo(t, s, "v", scene(24, 64, 48, 91), 4, codec.H264)

	healthy, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	healthyEnc, err := s.Read("v", ReadSpec{P: Physical{Codec: codec.HEVC}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Every address must start fully replicated (writes fan out).
	for addr, n := range replicaCounts(t, dir) {
		if n != 2 {
			t.Fatalf("%s has %d replicas before the wipe, want 2", addr, n)
		}
	}

	wipeRoot(t, filepath.Join(dir, "data-shard0"))
	s = openReplicatedStore(t, dir)
	defer s.Close()

	degradedRaw, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatalf("read with one root wiped: %v", err)
	}
	if len(degradedRaw.Frames) != len(healthy.Frames) {
		t.Fatalf("degraded read: %d frames, healthy %d", len(degradedRaw.Frames), len(healthy.Frames))
	}
	for i := range healthy.Frames {
		if !bytes.Equal(degradedRaw.Frames[i].Data, healthy.Frames[i].Data) {
			t.Fatalf("frame %d differs between healthy and degraded read", i)
		}
	}
	degradedEnc, err := s.Read("v", ReadSpec{P: Physical{Codec: codec.HEVC}})
	if err != nil {
		t.Fatal(err)
	}
	if len(degradedEnc.GOPs) != len(healthyEnc.GOPs) {
		t.Fatalf("degraded encoded read: %d GOPs, healthy %d", len(degradedEnc.GOPs), len(healthyEnc.GOPs))
	}
	for i := range healthyEnc.GOPs {
		if !bytes.Equal(degradedEnc.GOPs[i], healthyEnc.GOPs[i]) {
			t.Fatalf("encoded GOP %d differs between healthy and degraded read", i)
		}
	}

	// One maintenance pass restores full replication.
	if err := s.Maintain(); err != nil {
		t.Fatalf("maintain with one root wiped: %v", err)
	}
	rep, ok := s.ClusterStats()
	if !ok {
		t.Fatal("replicated store reports no replication stats")
	}
	if rep.LastScrub.Unrecoverable != 0 || rep.LastScrub.Repaired == 0 || rep.LastScrub.Checked == 0 {
		t.Fatalf("scrub stats %+v", rep.LastScrub)
	}
	if rep.Failovers == 0 {
		t.Error("degraded reads recorded no failovers")
	}
	for addr, n := range replicaCounts(t, dir) {
		if n != 2 {
			t.Errorf("%s has %d replicas after scrub, want 2", addr, n)
		}
	}
}

// TestReplicatedScrubVsTraffic races Maintain's scrub against foreground
// reads and a concurrent writer under the race detector: replication
// maintenance must never corrupt or stall live traffic.
func TestReplicatedScrubVsTraffic(t *testing.T) {
	dir := t.TempDir()
	s := openReplicatedStore(t, dir)
	defer s.Close()
	writeVideo(t, s, "v", scene(16, 64, 48, 92), 4, codec.H264)
	wipeRoot(t, filepath.Join(dir, "data-shard1"))

	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := s.Read("v", ReadSpec{})
				if err != nil {
					t.Errorf("read during scrub: %v", err)
					return
				}
				if len(res.Frames) != 16 {
					t.Errorf("read during scrub: %d frames", len(res.Frames))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		writeVideo(t, s, "w", scene(16, 64, 48, 93), 4, codec.H264)
	}()
	for i := 0; i < 3; i++ {
		if err := s.Maintain(); err != nil {
			t.Errorf("maintain during traffic: %v", err)
		}
	}
	wg.Wait()
}
