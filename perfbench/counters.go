package main

import (
	"context"
	"io/fs"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/vss"
)

// counters is one reading of every counter the program already exports,
// plus the Go runtime's. Layer metrics are deltas between a reading at
// the start of the timed phase and one at its end, so set-up and
// warm-up work never leaks into them.
type counters struct {
	at      time.Time
	pipe    map[string]obs.StageStats
	backend storage.BackendStats
	cluster storage.ClusterStats
	srv     server.MetricsSnapshot
	catalog int64 // bytes under the store's catalog directory

	gcCPU, totalCPU, allocBytes float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

// readCounters samples sys (and the server in front of it, when srv is
// non-nil). catalogDir is the store's catalog directory.
func readCounters(ctx context.Context, sys *vss.System, srv *server.Client, catalogDir string) (counters, error) {
	c := counters{
		at:      time.Now(),
		pipe:    sys.Store().Pipeline().Snapshot(),
		backend: sys.BackendStats(),
		catalog: dirBytes(catalogDir),
	}
	c.cluster, _ = sys.ClusterStats()
	if srv != nil {
		var err error
		if c.srv, err = srv.Metrics(ctx); err != nil {
			return c, err
		}
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	c.gcCPU, c.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	c.allocBytes = float64(s[2].Value.Uint64())
	return c, nil
}

// dirBytes sums the sizes of the regular files under dir (0 if absent).
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// dirsBytes sums dirBytes over several roots.
func dirsBytes(roots []string) int64 {
	var total int64
	for _, r := range roots {
		total += dirBytes(r)
	}
	return total
}

// heapPeak samples the Go heap that the last garbage collection found
// live until stopped, and keeps the largest reading: the timed phase's
// peak heap. Live bytes, unlike all allocated bytes, do not depend on
// when the collector happened to run.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / 1e6
}
