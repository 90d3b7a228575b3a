package main

import (
	"context"
	"testing"

	"repro/vss"
)

func TestZeroOpPhaseHasZeroLayerDeltas(t *testing.T) {
	dir := t.TempDir()
	sys, err := vss.OpenWith(dir, vss.Options{GOPFrames: 8}, vss.NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	before, err := readCounters(ctx, sys, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	after, err := readCounters(ctx, sys, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	r.counterLayers(timed(before, after, 0))
	r.spanLayers(newTracer(), timed(before, after, 0), "op.read")
	if len(r.layers) == 0 {
		t.Fatal("no layer metrics reported")
	}
	for name, m := range r.layers {
		if m.Value != 0 {
			t.Errorf("%s = %g over a phase with no operations, want 0", name, m.Value)
		}
	}
}
