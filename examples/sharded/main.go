// Sharded-backend walkthrough: open a store whose GOPs are spread
// across multiple filesystem roots (one per disk in a real deployment)
// with 2-way replication, write a video, observe the placement, wipe one
// root to simulate a dead disk — reads keep working via failover — and
// run a maintenance scrub that restores full replication.
//
// The equivalent daemon deployment is:
//
//	vssd -store DIR -shards 3 -replicas 2 -maintain 30s
//	vssctl -store DIR -shards 3 -replicas 2 stat    # inspect, same flags
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/visualroad"
	"repro/vss"
)

func main() {
	dir, err := os.MkdirTemp("", "vss-sharded-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Three shard roots under one temp dir; in production each would be
	// a different disk (vss.ShardRoots derives the conventional layout
	// vssd's -shards flag uses). replicas=2 keeps every GOP on two
	// distinct roots: the primary its address hashes to, plus the next
	// root on the ring.
	roots := vss.ShardRoots(dir, 3)
	open := func() *vss.System {
		backend, err := vss.NewShardedBackend(roots, 2)
		if err != nil {
			log.Fatal(err)
		}
		sys, err := vss.OpenWith(dir, vss.Options{}, backend)
		if err != nil {
			log.Fatal(err)
		}
		return sys
	}
	sys := open()

	const fps = 8
	frames := visualroad.Generate(visualroad.Config{Width: 240, Height: 136, FPS: fps, Seed: 7}, 12*fps)
	if err := sys.Create("cam", 0); err != nil {
		log.Fatal(err)
	}
	if err := sys.Write("cam", vss.WriteSpec{FPS: fps, Codec: vss.H264}, frames); err != nil {
		log.Fatal(err)
	}

	// Placement is a stable hash of each GOP's (video, physical video,
	// sequence) address: the same roots always yield the same layout,
	// and with replicas=2 each GOP appears under two of them.
	countGOPs := func(root string) int {
		n := 0
		filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() && filepath.Ext(path) == ".gop" {
				n++
			}
			return nil
		})
		return n
	}
	for i, root := range roots {
		fmt.Printf("shard %d (%s): %d GOPs\n", i, filepath.Base(root), countGOPs(root))
	}

	res, err := sys.Read("cam", vss.ReadSpec{
		S: vss.Spatial{Width: 120, Height: 68},
		T: vss.Temporal{Start: 2, End: 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	st := sys.BackendStats()
	fmt.Printf("read %d frames at %dx%d through backend=%s (%d reads, %.1f KiB)\n",
		res.FrameCount(), res.Width, res.Height,
		st.Backend, st.Reads, float64(st.BytesRead)/1024)

	// Simulate losing a disk: wipe shard 0's contents behind the store's
	// back. Every GOP whose primary or secondary lived there still has a
	// surviving replica, so reads keep returning complete data — the
	// failover counter shows the detour, and the write-repair journal
	// records each copy a failover read found missing.
	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}
	if err := os.RemoveAll(roots[0]); err != nil {
		log.Fatal(err)
	}
	sys = open()
	defer sys.Close()
	res, err = sys.Read("cam", vss.ReadSpec{})
	if err != nil {
		log.Fatal(err)
	}
	cl, _ := sys.ClusterStats()
	fmt.Printf("after wiping shard 0: read %d frames (failovers=%d, journaled repairs=%d)\n",
		res.FrameCount(), cl.Failovers, cl.JournalDepth)

	// One maintenance pass drains the journal, then scrubs the placements
	// and re-copies the remaining lost replicas from the survivors: shard
	// 0 fills back up and the store is fully replicated again.
	if err := sys.Maintain(); err != nil {
		log.Fatal(err)
	}
	cl, _ = sys.ClusterStats()
	fmt.Printf("scrub: checked=%d repaired=%d unrecoverable=%d; shard 0 holds %d GOPs again\n",
		cl.LastScrub.Checked, cl.LastScrub.Repaired, cl.LastScrub.Unrecoverable,
		countGOPs(roots[0]))
	for _, h := range cl.NodeHealth {
		fmt.Printf("  %s: errors=%d demoted=%v\n", filepath.Base(h.Addr), h.Errors, h.Demoted)
	}
}
