package main

import (
	"context"
	"testing"
)

func tinyCacheReads() cacheReadsSize {
	return cacheReadsSize{
		width: 96, height: 64, fps: 8, videoSeconds: 8, budgetMultiple: 3,
		setups: 1, warmup: 20, reads: 200, decodeEvery: 4,
	}
}

func runTiny(t *testing.T, sz cacheReadsSize, tr *tracer, plant string) *report {
	t.Helper()
	e := env{seed: 3, seconds: 1, tr: tr, dir: t.TempDir(), plant: plant}
	rep, err := cacheReads(context.Background(), e, sz)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestWrappersDoNotChangeCacheReads runs the same seeded cache-reads
// sequence on the bare stack and under the timing wrappers: the outputs
// and the program's own work counts must be identical. The budget is
// unlimited here because eviction and deferred compression are not
// repeatable run to run: both rank candidates gathered from a map with an
// unstable sort, so ties fall in map order, and two bare runs already
// differ once the budget binds.
func TestWrappersDoNotChangeCacheReads(t *testing.T) {
	sz := tinyCacheReads()
	sz.budgetMultiple = -1
	bare, traced := runTiny(t, sz, nil, ""), runTiny(t, sz, newTracer(), "")
	for _, rep := range []*report{bare, traced} {
		if !rep.correct() {
			t.Fatalf("output checks failed: %v", rep.problems)
		}
	}
	if bare.sum != traced.sum {
		t.Errorf("output checksum %016x bare, %016x wrapped", bare.sum, traced.sum)
	}
	for _, name := range []string{"core.gops_decoded_per_read", "storage.read_ops_per_read", "core.admitted_frac"} {
		if b, w := bare.layers[name].Value, traced.layers[name].Value; b != w {
			t.Errorf("%s = %g bare, %g wrapped", name, b, w)
		}
	}
	if traced.layers["storage.read_ms_p50"].N == 0 {
		t.Error("the wrapped run recorded no storage read spans")
	}
}

func TestPlantedWrongFrameCountFailsTheRun(t *testing.T) {
	rep := runTiny(t, tinyCacheReads(), nil, "drop-frame")
	if rep.correct() || rep.failed == 0 {
		t.Fatal("a read missing a frame passed the output checks")
	}
}

func TestCameraIngestChecksPass(t *testing.T) {
	sz := cameraIngestSize{
		width: 96, height: 64, fps: 8, overlap: 0.5,
		prefixSeconds: 2, liveSeconds: 240, jointSeconds: 4, rounds: 5,
		lookback: 4, roots: 4, replicas: 2,
	}
	rep, err := cameraIngest(context.Background(), env{seed: 5, seconds: 1, dir: t.TempDir()}, sz)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("output checks failed: %v", rep.problems)
	}
	if rep.e2e["frames_per_s"].Value <= 0 || rep.e2e["storage_ratio"].Value <= 0 {
		t.Fatalf("end-to-end metrics not measured: %+v", rep.e2e)
	}
}

func TestServeFleetChecksPass(t *testing.T) {
	sz := serveFleetSize{
		width: 96, height: 64, fps: 8, videoSeconds: 6,
		nodes: 3, replicas: 2, setups: 1, senders: 2,
		nominalRPS: 400, nominalRequests: 200, warmupRequests: 40, warmupRPS: 800,
		ladder: []float64{800}, rungRequests: 200, limitMs: 1000, blocks: 2, blockRequests: 20,
	}
	tr := newTracer()
	rep, err := serveFleet(context.Background(), env{seed: 5, seconds: 1, tr: tr, dir: t.TempDir()}, sz)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("output checks failed: %v", rep.problems)
	}
	// Spans inside the front vssd join their requests through the trace
	// ID the client sends.
	for _, name := range []string{"router.fetch_ms_p50", "router.node_fetch_ms_p50"} {
		if rep.layers[name].N == 0 {
			t.Errorf("%s: no spans recorded", name)
		}
	}
	joined := 0
	for _, s := range tr.snapshot() {
		if s.Name == "router.read" && s.Parent != 0 {
			joined++
		}
	}
	if joined == 0 {
		t.Error("no router span found its request through the trace ID")
	}
}
