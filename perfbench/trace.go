package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is one timed interval recorded by benchmark code: a workload op,
// a call into the system under test, or a call a wrapper saw cross a
// layer boundary. Times are offsets from the tracer's start.
type span struct {
	ID, Parent, Op int64
	Name           string
	Start, End     time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanRef is what a context carries so that nested calls find their
// parent span and the op it belongs to.
type spanRef struct{ id, op int64 }

type spanKey struct{}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
	// byTrace maps an X-VSS-Trace ID minted for an op to the op's call
	// span, so calls that reach the wrappers on a server's request
	// context (which carries only the trace ID) still find their parent.
	byTrace map[string]spanRef
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byTrace: make(map[string]spanRef)}
}

// parentOf finds the enclosing span: the benchmark's own context value
// first, then the request trace ID a server resumed from the wire.
func (t *tracer) parentOf(ctx context.Context) spanRef {
	if ctx == nil {
		return spanRef{}
	}
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return ref
	}
	if id := obs.TraceID(ctx); id != "" {
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.byTrace[id]
	}
	return spanRef{}
}

// beginOp opens the root span of a new op; the op's ID is the span's.
// The returned context carries the span, and end closes it.
func (t *tracer) beginOp(ctx context.Context, name string) (context.Context, func()) {
	return t.open(ctx, name, true, time.Now())
}

// beginOpAt is beginOp with an explicit start time: an open-loop
// request's op starts when it was due, not when it was sent.
func (t *tracer) beginOpAt(ctx context.Context, name string, start time.Time) (context.Context, func()) {
	return t.open(ctx, name, true, start)
}

// begin opens a span under the one ctx carries (or under the op a
// resumed wire trace ID names), joining its op.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	return t.open(ctx, name, false, time.Now())
}

func (t *tracer) open(ctx context.Context, name string, root bool, start time.Time) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	id := t.next.Add(1)
	parent, op := spanRef{}, id
	if !root {
		parent = t.parentOf(ctx)
		op = parent.op
	}
	s := span{ID: id, Parent: parent.id, Op: op, Name: name, Start: start.Sub(t.t0)}
	if ctx != nil { // some internal callers pass none; forward it as given
		ctx = context.WithValue(ctx, spanKey{}, spanRef{id: id, op: op})
	}
	return ctx, func() {
		s.End = time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// withTraceID attaches a fresh wire trace ID to ctx and maps it to ctx's
// span, so server-side work that resumes the ID lands under that span.
func (t *tracer) withTraceID(ctx context.Context) context.Context {
	if t == nil {
		return ctx
	}
	tr := obs.StartTrace("", "perfbench")
	t.mu.Lock()
	t.byTrace[tr.ID()] = t.parentOf(ctx)
	t.mu.Unlock()
	return obs.WithTrace(ctx, tr)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the union of its children's
// intervals, clipped to the span. Using the union matters: prefetched
// GOP fetches overlap each other, and summing them would count the same
// wall time twice.
func selfTime(p span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return p.dur() - covered
}

// spanIndex groups spans for the per-layer summaries.
type spanIndex struct {
	byName map[string][]span
	kids   map[int64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, kids: map[int64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.kids[s.Parent] = append(ix.kids[s.Parent], s)
		}
	}
	return ix
}

// durMillis lists the durations of every span with the given name.
func (ix spanIndex) durMillis(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, ms(s.dur()))
	}
	return out
}

// selfMillis lists the self time of every span with the given name.
func (ix spanIndex) selfMillis(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, ms(selfTime(s, ix.kids[s.ID])))
	}
	return out
}

// unattributedFrac is the share of op time that no layer span below
// core covers: op time outside every storage, router and node span of
// the op, over the ops' total duration. The op and call spans the
// benchmark opens itself do not count, so the remainder holds core's own
// work (which has no spans of its own) along with anything a trace
// misses. Reported, not hidden, so a trace that misses a layer shows it.
func (ix spanIndex) unattributedFrac(opName string) float64 {
	layers := map[int64][]span{}
	for name, spans := range ix.byName {
		if !strings.HasPrefix(name, "op.") && !strings.HasPrefix(name, "call.") {
			for _, s := range spans {
				layers[s.Op] = append(layers[s.Op], s)
			}
		}
	}
	var self, total time.Duration
	for _, s := range ix.byName[opName] {
		self += selfTime(s, layers[s.ID])
		total += s.dur()
	}
	return ratio(float64(self), float64(total))
}
