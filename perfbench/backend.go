package main

import (
	"context"

	"repro/internal/storage"
)

// timedBackend records one span per call into the storage.Backend it
// wraps. It must not change the program it measures, so it keeps every
// capability the wrapped backend offers:
//
//   - Unwrap lets storage.AsScrubber, storage.AsClusterReporter and
//     SweepTemps find the inner backend's scrub, cluster and temp-sweep
//     machinery.
//   - The three optional read interfaces forward through
//     storage.ReadGOPExpectCtx / ReadGOPCtx, so expected-size failover
//     and the caller's context (and with it the request trace that rides
//     to storage nodes) reach the inner backend exactly as they would
//     without the wrapper.
//
// layer prefixes the span names ("storage", "router", "node").
type timedBackend struct {
	inner storage.Backend
	tr    *tracer
	layer string
}

var (
	_ storage.Backend             = (*timedBackend)(nil)
	_ storage.ContextReader       = (*timedBackend)(nil)
	_ storage.ContextExpectReader = (*timedBackend)(nil)
	_ storage.ExpectReader        = (*timedBackend)(nil)
)

// wrapBackend returns b unchanged when tracing is off, so untraced runs
// measure exactly the stack the program builds on its own.
func wrapBackend(b storage.Backend, tr *tracer, layer string) storage.Backend {
	if tr == nil {
		return b
	}
	return &timedBackend{inner: b, tr: tr, layer: layer}
}

func (b *timedBackend) Unwrap() storage.Backend { return b.inner }

func (b *timedBackend) Name() string { return b.inner.Name() }

func (b *timedBackend) span(ctx context.Context, op string) (context.Context, func()) {
	return b.tr.begin(ctx, b.layer+"."+op)
}

func (b *timedBackend) WriteGOP(video, physDir string, seq int, data []byte) error {
	_, end := b.span(context.Background(), "write")
	defer end()
	return b.inner.WriteGOP(video, physDir, seq, data)
}

func (b *timedBackend) ReadGOP(video, physDir string, seq int) ([]byte, error) {
	return b.ReadGOPContext(context.Background(), video, physDir, seq)
}

func (b *timedBackend) ReadGOPContext(ctx context.Context, video, physDir string, seq int) ([]byte, error) {
	ctx, end := b.span(ctx, "read")
	defer end()
	return storage.ReadGOPCtx(ctx, b.inner, video, physDir, seq)
}

func (b *timedBackend) ReadGOPExpect(video, physDir string, seq int, want int64) ([]byte, error) {
	return b.ReadGOPExpectContext(context.Background(), video, physDir, seq, want)
}

func (b *timedBackend) ReadGOPExpectContext(ctx context.Context, video, physDir string, seq int, want int64) ([]byte, error) {
	ctx, end := b.span(ctx, "read")
	defer end()
	return storage.ReadGOPExpectCtx(ctx, b.inner, video, physDir, seq, want)
}

func (b *timedBackend) GOPSize(video, physDir string, seq int) (int64, error) {
	return b.inner.GOPSize(video, physDir, seq)
}

func (b *timedBackend) DeleteGOP(video, physDir string, seq int) error {
	_, end := b.span(context.Background(), "delete")
	defer end()
	return b.inner.DeleteGOP(video, physDir, seq)
}

func (b *timedBackend) LinkGOP(video, srcDir string, srcSeq int, dstVideo, dstDir string, dstSeq int) error {
	_, end := b.span(context.Background(), "link")
	defer end()
	return b.inner.LinkGOP(video, srcDir, srcSeq, dstVideo, dstDir, dstSeq)
}

func (b *timedBackend) DeletePhysical(video, physDir string) error {
	_, end := b.span(context.Background(), "delete")
	defer end()
	return b.inner.DeletePhysical(video, physDir)
}

func (b *timedBackend) DeleteVideo(video string) error {
	_, end := b.span(context.Background(), "delete")
	defer end()
	return b.inner.DeleteVideo(video)
}

func (b *timedBackend) Walk(fn func(video, physDir string, seq int, size int64) error) error {
	return b.inner.Walk(fn)
}
