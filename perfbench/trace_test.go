package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

func iv(lo, hi int) span {
	return span{Start: time.Duration(lo) * time.Millisecond, End: time.Duration(hi) * time.Millisecond}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := iv(0, 100)
	kids := []span{iv(10, 40), iv(30, 60), iv(35, 45), iv(80, 120), iv(150, 160)}
	// Covered: [10,60) and [80,100) once each, however many children
	// overlap there; the child past the parent's end is clipped away.
	if got, want := selfTime(parent, kids), 30*time.Millisecond; got != want {
		t.Fatalf("self time = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Fatalf("self time without children = %v", got)
	}
}

func TestSpansFindParentsThroughContextAndTraceID(t *testing.T) {
	tr := newTracer()
	opCtx, endOp := tr.beginOp(context.Background(), "op.request")
	callCtx, endCall := tr.begin(opCtx, "call.request")
	wire := tr.withTraceID(callCtx)
	// A server resumes only the trace ID, on a context of its own.
	serverCtx := obs.WithTrace(context.Background(), obs.StartTrace(obs.TraceID(wire), "read"))
	_, endRemote := tr.begin(serverCtx, "router.read")
	endRemote()
	endCall()
	endOp()

	byName := map[string]span{}
	for _, s := range tr.snapshot() {
		byName[s.Name] = s
	}
	op, call, remote := byName["op.request"], byName["call.request"], byName["router.read"]
	if op.Parent != 0 || op.Op != op.ID {
		t.Fatalf("op span %+v: want a root that names its own op", op)
	}
	if call.Parent != op.ID || call.Op != op.ID {
		t.Fatalf("call span %+v: want parent and op %d", call, op.ID)
	}
	if remote.Parent != call.ID || remote.Op != op.ID {
		t.Fatalf("span joined through the trace ID %+v: want parent %d, op %d", remote, call.ID, op.ID)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ctx, end := tr.beginOp(context.Background(), "op.read")
	end()
	if ctx != context.Background() || tr.snapshot() != nil || tr.withTraceID(ctx) != ctx {
		t.Fatal("a nil tracer must pass contexts through and record nothing")
	}
}

func TestUnattributedIsOpTimeOutsideLayerSpans(t *testing.T) {
	named := func(s span, id, parent, op int64, name string) span {
		s.ID, s.Parent, s.Op, s.Name = id, parent, op, name
		return s
	}
	ix := indexSpans([]span{
		named(iv(0, 100), 1, 0, 1, "op.read"),
		named(iv(0, 100), 2, 1, 1, "call.read"), // the benchmark's own span: not a layer
		named(iv(10, 40), 3, 2, 1, "storage.read"),
		named(iv(30, 50), 4, 2, 1, "storage.read"),
		named(iv(50, 100), 5, 0, 9, "storage.read"), // another op's
	})
	// Layer spans cover [10,50) of the op once; the other 60 ms is core's
	// own work, which no span names.
	if got := ix.unattributedFrac("op.read"); got != 0.6 {
		t.Fatalf("unattributed fraction = %g, want 0.6", got)
	}
}
