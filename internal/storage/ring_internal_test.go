package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestShardedPlacementStable pins the property multi-process agreement
// rests on: shard placement is a pure function of the GOP address and
// the root list, so a store reopened with the same roots finds every
// GOP, and the GOPs do actually spread across shards.
func TestShardedPlacementStable(t *testing.T) {
	dir := t.TempDir()
	roots := []string{dir + "/s0", dir + "/s1", dir + "/s2"}
	s1, err := OpenSharded(roots)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for seq := 0; seq < n; seq++ {
		if err := s1.WriteGOP("cam", "p000001-640x360r30.h264", seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	used := map[int]int{}
	for seq := 0; seq < n; seq++ {
		used[s1.nodeOf("cam", "p000001-640x360r30.h264", seq)]++
	}
	if len(used) < 2 {
		t.Errorf("all %d GOPs landed on one shard: %v", n, used)
	}
	// Reopen (a second process) and read everything back.
	s2, err := OpenSharded(roots)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < n; seq++ {
		got, err := s2.ReadGOP("cam", "p000001-640x360r30.h264", seq)
		if err != nil || len(got) != 1 || got[0] != byte(seq) {
			t.Fatalf("seq %d after reopen: %v %v", seq, err, got)
		}
	}

	// The placement of every address is part of the on-disk format: a
	// store written by an earlier build must stay readable. These
	// placements were computed by the sharded backend before it became
	// the ring; each GOP must land on exactly these roots.
	pins := []struct {
		video, phys string
		seq         int
		roots, reps int
		want        []int
	}{
		{"cam", "p000001-640x360r30.h264", 0, 3, 1, []int{2}},
		{"cam", "p000001-640x360r30.h264", 1, 3, 1, []int{1}},
		{"cam", "p000001-640x360r30.h264", 17, 3, 1, []int{0}},
		{"traffic", "p000004-1920x1080r30.hevc", 3, 3, 1, []int{0}},
		{".vss-catalog", "snapshot", 0, 3, 1, []int{1}},
		{"lobby", "p000002-960x540r30.ls", 1023, 3, 1, []int{1}},
		{"cam", "p000001-640x360r30.h264", 0, 3, 2, []int{2, 0}},
		{"cam", "p000001-640x360r30.h264", 1, 3, 2, []int{1, 2}},
		{"v", "p1", 9, 3, 2, []int{2, 0}},
		{"cam", "p000001-640x360r30.h264", 0, 4, 2, []int{2, 3}},
		{"cam", "p000001-640x360r30.h264", 17, 4, 2, []int{2, 3}},
		{"traffic", "p000012-320x180r15.raw", 250, 4, 2, []int{3, 0}},
		{".vss-catalog", "snapshot", 0, 4, 2, []int{3, 0}},
		{"lobby", "p000002-960x540r30.ls", 1023, 4, 2, []int{0, 1}},
		{"cam", "p000001-640x360r30.h264", 17, 5, 3, []int{4, 0, 1}},
		{"traffic", "p000004-1920x1080r30.hevc", 3, 5, 3, []int{2, 3, 4}},
		{"v", "p1", 9, 5, 3, []int{1, 2, 3}},
		{"lobby", "p000002-960x540r30.ls", 1023, 5, 3, []int{0, 1, 2}},
	}
	for _, pin := range pins {
		dir := t.TempDir()
		roots := make([]string, pin.roots)
		for i := range roots {
			roots[i] = filepath.Join(dir, fmt.Sprintf("s%d", i))
		}
		s, err := OpenShardedReplicated(roots, pin.reps)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteGOP(pin.video, pin.phys, pin.seq, []byte("pinned")); err != nil {
			t.Fatal(err)
		}
		var got []int
		for i, root := range roots {
			name := filepath.Join(root, pin.video, pin.phys, fmt.Sprintf("%d.gop", pin.seq))
			if _, err := os.Stat(name); err == nil {
				got = append(got, i)
			}
		}
		slices.Sort(got)
		want := slices.Sorted(slices.Values(pin.want))
		if !slices.Equal(got, want) || !slices.Equal(s.placement(pin.video, pin.phys, pin.seq), pin.want) {
			t.Errorf("%s/%s/%d over %d roots r=%d: on roots %v, placement %v, want %v",
				pin.video, pin.phys, pin.seq, pin.roots, pin.reps, got,
				s.placement(pin.video, pin.phys, pin.seq), pin.want)
		}
	}
}

// TestRingSweepTemps: the ring reclaims aged crash-orphaned temps on
// every localfs root, skips members that stage no temps, and leaves a
// fresh temp and the real GOPs alone.
func TestRingSweepTemps(t *testing.T) {
	dir := t.TempDir()
	roots := []string{dir + "/s0", dir + "/s1", dir + "/s2"}
	nodes := []Backend{NewMem()}
	for _, root := range roots {
		s, err := Open(root)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, s)
	}
	r, err := NewRing(nodes, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for seq := range 8 {
		if err := r.WriteGOP("v", "p1", seq, payload(seq)); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-time.Hour)
	var aged, fresh []string
	for _, root := range roots {
		if err := os.MkdirAll(filepath.Join(root, "v", "p1"), 0o755); err != nil {
			t.Fatal(err)
		}
		a := filepath.Join(root, "v", "p1", ".0.gop.tmp-111111")
		f := filepath.Join(root, "v", "p1", ".1.gop.tmp-222222")
		for _, name := range []string{a, f} {
			if err := os.WriteFile(name, []byte("partial"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Chtimes(a, old, old); err != nil {
			t.Fatal(err)
		}
		aged, fresh = append(aged, a), append(fresh, f)
	}
	if err := r.SweepTemps(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i := range roots {
		if _, err := os.Stat(aged[i]); !os.IsNotExist(err) {
			t.Errorf("root %d: aged temp survived the ring sweep (stat err %v)", i, err)
		}
		if _, err := os.Stat(fresh[i]); err != nil {
			t.Errorf("root %d: fresh temp swept despite age guard: %v", i, err)
		}
	}
	for seq := range 8 {
		if got, err := r.ReadGOP("v", "p1", seq); err != nil || string(got) != string(payload(seq)) {
			t.Errorf("seq %d disturbed by sweep: %v", seq, err)
		}
	}
}

// TestShardedDegradedShard verifies the failure model: a GOP on a dead
// shard errors per GOP while GOPs on healthy shards keep serving.
func TestShardedDegradedShard(t *testing.T) {
	dir := t.TempDir()
	roots := []string{dir + "/s0", dir + "/s1"}
	s, err := OpenSharded(roots)
	if err != nil {
		t.Fatal(err)
	}
	// Find two seqs on different shards.
	seqOn := map[int]int{} // shard -> seq
	for seq := 0; len(seqOn) < 2 && seq < 64; seq++ {
		sh := s.nodeOf("v", "p1", seq)
		if _, ok := seqOn[sh]; !ok {
			seqOn[sh] = seq
		}
		if err := s.WriteGOP("v", "p1", seq, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Degrade shard 1 by replacing its tree behind the store's back.
	if err := s.nodes[1].DeleteVideo("v"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadGOP("v", "p1", seqOn[1]); err == nil {
		t.Error("read from degraded shard succeeded")
	}
	if _, err := s.ReadGOP("v", "p1", seqOn[0]); err != nil {
		t.Errorf("healthy shard affected: %v", err)
	}
}
