package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/visualroad"
)

// DegradedConfig is one storage configuration of the degraded-read
// sweep: a replicated sharded store, optionally with one root wiped
// (dead disk) and optionally scrub-repaired before the measurement.
type DegradedConfig struct {
	// Name labels the configuration (and the BenchmarkDegradedRead
	// sub-benchmark).
	Name string
	// Replicas is the copies kept of every GOP across the 4 shard roots.
	Replicas int
	// WipeRoot, when >= 0, empties that shard root after the write —
	// reads then depend on failover (replicas > 1) to keep serving.
	WipeRoot int
	// Scrub runs one maintenance pass (replication scrub) after the
	// wipe, restoring full replication before the measurement.
	Scrub bool
}

// degradedShards is the root count of every degraded-sweep store.
const degradedShards = 4

// DegradedConfigs sweeps replication and failure states. It is the
// single source for both the degraded experiment and the root
// BenchmarkDegradedRead harness. The interesting comparisons:
//
//   - healthy-r1 vs healthy-r2: the write amplification and read cost of
//     keeping two copies when nothing is broken (reads always hit the
//     primary; the second copy costs writes, not reads).
//   - healthy-r2 vs onedown-r2-failover: the price of serving through
//     failover while a root is down — every read whose primary was wiped
//     pays a miss on the dead shard before the surviving replica answers.
//   - onedown-r2-scrubbed: after one scrub pass the store is fully
//     replicated again and reads return to healthy speed.
//
// A replicas=1 store with a wiped root is the contrast that motivates
// all of this: its reads simply fail (the experiment prints the error
// rather than a time; without failover there is nothing to measure).
func DegradedConfigs() []DegradedConfig {
	return []DegradedConfig{
		{Name: "healthy-r1", Replicas: 1, WipeRoot: -1},
		{Name: "healthy-r2", Replicas: 2, WipeRoot: -1},
		{Name: "onedown-r2-failover", Replicas: 2, WipeRoot: 0},
		{Name: "onedown-r2-scrubbed", Replicas: 2, WipeRoot: 0, Scrub: true},
	}
}

// SetupDegraded builds one configuration's store under dir: write the
// standard workload, wipe a root if asked, scrub if asked. The returned
// store has caching disabled so every read pays the full fetch+decode
// path. Callers Close it.
func SetupDegraded(cfg DegradedConfig, dir string) (*core.Store, int, error) {
	roots := core.ShardRoots(dir, degradedShards)
	backend, err := storage.OpenShardedReplicated(roots, cfg.Replicas)
	if err != nil {
		return nil, 0, err
	}
	opts := core.Options{GOPFrames: 8, BudgetMultiple: -1, DisableCache: true, Backend: backend}
	s, err := core.Open(dir, opts)
	if err != nil {
		return nil, 0, err
	}
	frames := visualroad.Generate(visualroad.Config{
		Width: benchW, Height: benchH, FPS: benchFPS, Seed: 3307,
	}, benchSeconds*benchFPS)
	if err := s.Create("video", -1); err != nil {
		s.Close()
		return nil, 0, err
	}
	if err := s.Write("video", core.WriteSpec{FPS: benchFPS, Codec: codec.H264, Quality: 85}, frames); err != nil {
		s.Close()
		return nil, 0, err
	}
	if cfg.WipeRoot >= 0 {
		if err := os.RemoveAll(roots[cfg.WipeRoot]); err != nil {
			s.Close()
			return nil, 0, err
		}
		if err := os.MkdirAll(roots[cfg.WipeRoot], 0o755); err != nil {
			s.Close()
			return nil, 0, err
		}
	}
	if cfg.Scrub {
		if err := s.Maintain(); err != nil {
			s.Close()
			return nil, 0, err
		}
	}
	return s, len(frames), nil
}

// runDegradedRead times uncached full-length raw reads of one
// configuration (best of k), returning read time, stored bytes touched,
// frames, and the failover count accumulated over the measurement.
func runDegradedRead(cfg DegradedConfig, reads int) (time.Duration, int64, int, int64, error) {
	dir, cleanup, err := tempDir()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer cleanup()
	s, frames, err := SetupDegraded(cfg, dir)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer s.Close()
	var best time.Duration
	var bytes int64
	for i := 0; i < reads; i++ {
		var res *core.ReadResult
		d, err := timeIt(func() error {
			var err error
			res, err = s.Read("video", core.ReadSpec{})
			return err
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if best == 0 || d < best {
			best = d
		}
		bytes = res.Stats.BytesRead
	}
	var failovers int64
	if rep, ok := s.ClusterStats(); ok {
		failovers = rep.Failovers
	}
	return best, bytes, frames, failovers, nil
}

// DegradedExp measures cold-read performance of the replicated sharded
// backend across failure states: healthy, one root down (served via
// read failover), and one root down after a scrub repaired replication.
// It closes with the no-replication contrast: the same wipe at
// replicas=1 makes reads fail outright.
func DegradedExp(w io.Writer) error {
	header(w, "Degraded: replicated reads with a wiped shard root (4 roots)")
	fmt.Fprintf(w, "%-22s %12s %12s %12s %11s\n", "Config", "Read ms", "MB/s", "Frames/sec", "Failovers")
	for _, cfg := range DegradedConfigs() {
		d, bytes, frames, failovers, err := runDegradedRead(cfg, 3)
		if err != nil {
			return fmt.Errorf("degraded %s: %w", cfg.Name, err)
		}
		fmt.Fprintf(w, "%-22s %12.1f %12.1f %12.1f %11d\n",
			cfg.Name, float64(d.Milliseconds()),
			float64(bytes)/(1<<20)/d.Seconds(), fps(frames, d), failovers)
	}
	// Without replication the same failure is not a slowdown but an
	// outage — reads of GOPs on the wiped root fail.
	dir, cleanup, err := tempDir()
	if err != nil {
		return err
	}
	defer cleanup()
	s, _, err := SetupDegraded(DegradedConfig{Name: "onedown-r1", Replicas: 1, WipeRoot: 0}, dir)
	if err != nil {
		return err
	}
	defer s.Close()
	if _, err := s.Read("video", core.ReadSpec{}); err != nil {
		fmt.Fprintf(w, "%-22s read fails without failover: %.80s...\n", "onedown-r1", err.Error())
	} else {
		fmt.Fprintf(w, "%-22s unexpectedly served (no GOP hashed to the wiped root)\n", "onedown-r1")
	}
	return nil
}
