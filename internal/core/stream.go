package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/obs"
)

// This file implements phase B of the read pipeline (see reader.go) —
// the one executor every read runs through — and the streaming read API
// on top of it. Phase A hands the executor an ordered list of output
// units: a stored bitstream emitted as-is, a run of frame sources
// transcoded into one output GOP (compressed output) or one frame batch
// (raw output), or one candidate GOP of a predicate read, decoded and
// filtered against the predicate (query.go). The executor produces them
// on the store's worker pool:
//
//   - Workers claim units strictly in order, so when a unit fails every
//     earlier claimed unit still completes and the consumer sees the
//     read's first error in output order.
//   - Memory is bounded twice over: at most 2*Workers units are produced
//     ahead of the consumer, and the IO-prefetch stage fetches at most
//     2*Workers stored GOPs ahead of the decode workers (startPrefetch in
//     reader.go).
//   - A decode job runs lazily (once) on the first unit that needs its
//     GOP, waiting for its prefetched bytes before taking a CPU slot, and
//     its frames are released once the last unit referencing them (refs)
//     has been produced.
//   - Passthrough bytes are the exception to the look-ahead bound: phase A
//     snapshots aligned same-format GOPs under the video lock, so a pure-
//     passthrough read holds its encoded response up front — compressed
//     bytes, roughly the response size. They carry no decode work to
//     overlap with, and snapshotting them under the lock keeps every
//     consumer of one plan byte-identical.
//
// Consumers differ only in what they do with the units. ReadStream hands
// them to the caller as they complete, so a network client can start
// consuming the first GOP while later GOPs still decode, and a client
// that disconnects cancels the remaining work. Batch Read drains a
// ReadStream and returns the concatenation. Predicate reads drain a
// QueryStream of scan units. Phase C — cache admission — is one function,
// ReadStream.admit, with two policies:
//
//   - Batch reads admit every result, surface admission errors, and
//     (raw output) drive deferred compression.
//   - Compressed streams buffer their output GOPs — small, roughly the
//     response size, bounded by Options.StreamAdmitBytes — and admit them
//     as a materialized view on clean EOF, swallowing failures: the bytes
//     are already delivered. That keeps a serving layer's hot transcode
//     windows from re-paying decode + re-encode on every request. Raw
//     streams never admit and never drive deferred compression: admission
//     needs the whole decoded output in memory, which is exactly what
//     streaming avoids.

// ReadBatch is one in-order unit of a streaming read's output: a run of
// decoded frames in the requested layout (raw reads) or a single encoded
// GOP (compressed reads).
type ReadBatch struct {
	Frames []*frame.Frame
	GOP    []byte
}

// FrameCount returns the number of frames the batch carries.
func (b *ReadBatch) FrameCount() int {
	if len(b.Frames) > 0 {
		return len(b.Frames)
	}
	if len(b.GOP) > 0 {
		if hd, err := codec.DecodeHeader(b.GOP); err == nil {
			return hd.FrameCount
		}
	}
	return 0
}

// readUnit is one ordered output unit and its precomputed work: a
// passthrough stored bitstream, a run of frame sources to transcode, or
// a predicate scan of one decoded GOP.
type readUnit struct {
	pass    []byte       // non-nil: stored GOP emitted as-is, no CPU work
	srcs    []frameSrc   // transcode run (chunked to one output GOP)
	scan    *gopScan     // non-nil: predicate read of jobs[0]
	jobs    []*decodeJob // distinct decode jobs the unit depends on
	frames  int          // output frames this unit carries (admission mbpp)
	keepRGB bool         // keep the RGB source frames of the encoded GOP (quality sampling)

	// Outputs, valid once done is closed.
	batch   *ReadBatch
	rgb     []*frame.Frame // keepRGB: RGB-at-ROI frames behind batch.GOP
	matches []Match
	scanned int
	err     error
	done    chan struct{}
}

// newTranscodeUnit builds a transcode unit, deduplicating its decode jobs.
func newTranscodeUnit(srcs []frameSrc) *readUnit {
	u := &readUnit{srcs: srcs, frames: len(srcs), done: make(chan struct{})}
	seen := make(map[*decodeJob]bool, len(srcs))
	for _, src := range srcs {
		if !seen[src.job] {
			seen[src.job] = true
			u.jobs = append(u.jobs, src.job)
		}
	}
	return u
}

// executor is phase B: it produces a readJob's units on the worker pool
// and hands them to one consumer goroutine in order.
type executor struct {
	s       *Store
	ctx     context.Context
	cancel  context.CancelCauseFunc
	job     *readJob
	next    int           // consumer cursor
	claim   atomic.Int64  // worker claim counter
	ahead   chan struct{} // bounds units produced ahead of the consumer
	decoded atomic.Int64  // GOP streams decoded
	err     error         // terminal consumer-side state (io.EOF or failure)
}

// execute starts phase B for a snapshotted job: the IO-prefetch stage
// plus up to Workers unit producers. Both stop when the executor's
// context is cancelled (finish, a unit error, or ctx itself).
func (s *Store) execute(ctx context.Context, job *readJob) *executor {
	x := &executor{s: s, job: job, ahead: make(chan struct{}, 2*s.opts.Workers)}
	x.ctx, x.cancel = context.WithCancelCause(ctx)
	for _, u := range job.units {
		for _, j := range u.jobs {
			j.refs.Add(1)
		}
	}
	s.startPrefetch(x.ctx, job.fetches)
	for w := 0; w < min(s.opts.Workers, len(job.units)); w++ {
		go x.worker()
	}
	return x
}

// worker claims units in order and produces them. Claims happen strictly
// in increasing index order, so when a worker observes cancellation every
// unit before the first unclaimed index is guaranteed to complete — that
// is what lets nextUnit surface errors in output order.
func (x *executor) worker() {
	for {
		// Backpressure: don't run ahead of the consumer by more than the
		// ahead window. Tokens are released by nextUnit as units are
		// consumed.
		select {
		case x.ahead <- struct{}{}:
		case <-x.ctx.Done():
			return
		}
		i := int(x.claim.Add(1)) - 1
		if i >= len(x.job.units) {
			return
		}
		u := x.job.units[i]
		if u.err = x.produce(u); u.err != nil {
			x.cancel(u.err) // stops other workers at their next claim
		}
		close(u.done)
	}
}

// acquireSlot takes one slot of the store's worker pool, giving up if the
// read is cancelled while waiting — a dead read must not consume CPU
// slots it hasn't acquired yet. Callers release with <-x.s.workSem.
func (x *executor) acquireSlot() error {
	select {
	case x.s.workSem <- struct{}{}:
		return nil
	case <-x.ctx.Done():
		return context.Cause(x.ctx)
	}
}

// decode runs a decode job once, on the first unit that needs it. The
// prefetched bytes are awaited BEFORE taking a CPU slot: a unit stalled
// on IO must not occupy the pool.
func (x *executor) decode(j *decodeJob) error {
	j.once.Do(func() {
		snap, err := j.resolve(x.ctx, x.s)
		if err != nil {
			j.runErr = err
			return
		}
		if j.runErr = x.acquireSlot(); j.runErr != nil {
			return
		}
		start := time.Now()
		j.runErr = j.decodeResolved(x.ctx, snap, x.s)
		obs.ObserveCodec(x.ctx, x.s.pipe, obs.StageDecode, string(j.codecID), time.Since(start))
		<-x.s.workSem
		if j.runErr == nil {
			x.decoded.Add(int64(j.decoded))
		}
	})
	return j.runErr
}

// produce computes one unit's output: lazy deduplicated GOP decode, then
// the unit's CPU work under one pool slot — parallelism comes from units
// racing each other, bounded by the pool.
func (x *executor) produce(u *readUnit) error {
	if u.pass != nil {
		u.batch = &ReadBatch{GOP: u.pass}
		return nil
	}
	for _, j := range u.jobs {
		if err := x.decode(j); err != nil {
			return err
		}
	}
	if err := x.acquireSlot(); err != nil {
		return err
	}
	var err error
	if u.scan != nil {
		u.scanGOP()
	} else {
		err = x.transcode(u)
	}
	<-x.s.workSem
	if err != nil {
		return err
	}
	// Release decoded source frames once the last unit that needs them
	// has been produced, keeping read memory bounded.
	for _, j := range u.jobs {
		if j.refs.Add(-1) == 0 {
			j.frames = nil
		}
	}
	return nil
}

// transcode converts the unit's frames into the requested space and
// either re-encodes them as one output GOP or converts them to the
// requested pixel layout. Caller holds a pool slot.
func (x *executor) transcode(u *readUnit) error {
	r := x.job.r
	frames := make([]*frame.Frame, 0, len(u.srcs))
	for _, src := range u.srcs {
		if err := context.Cause(x.ctx); err != nil {
			return err
		}
		if len(src.job.frames) == 0 {
			return fmt.Errorf("core: decoded GOP is empty")
		}
		f, err := convertFrame(src.job.frames[min(src.idx, len(src.job.frames)-1)], src.p, r)
		if err != nil {
			return err
		}
		frames = append(frames, f)
	}
	if r.codec.Compressed() {
		start := time.Now()
		data, _, err := codec.EncodeGOP(frames, r.codec, r.quality)
		obs.ObserveCodec(x.ctx, x.s.pipe, obs.StageEncode, string(r.codec), time.Since(start))
		if err != nil {
			return err
		}
		u.batch = &ReadBatch{GOP: data}
		if u.keepRGB {
			u.rgb = frames
		}
		return nil
	}
	outFmt := frame.PixelFormat(r.pixfmt)
	for i, f := range frames {
		if f.Format != outFmt {
			frames[i] = f.Convert(outFmt)
		}
	}
	u.batch = &ReadBatch{Frames: frames}
	return nil
}

// nextUnit returns the next produced unit in order, nil once every unit
// has been consumed, or the first error (in order) the read hit — after
// which the executor is dead and keeps returning that error.
func (x *executor) nextUnit() (*readUnit, error) {
	if x.err != nil {
		return nil, x.err
	}
	if x.next >= len(x.job.units) {
		return nil, nil
	}
	u := x.job.units[x.next]
	// Prefer a completed unit over cancellation: an error at a later unit
	// cancels the context, but every earlier CLAIMED unit still runs to
	// completion, and its output is still valid — so on cancellation,
	// give up on this unit only if no worker claimed it (then nobody will
	// close done). Claims are ordered, so claim > next means exactly that
	// this unit was claimed.
	select {
	case <-u.done:
	case <-x.ctx.Done():
		if int(x.claim.Load()) <= x.next {
			x.finish(context.Cause(x.ctx))
			return nil, x.err
		}
		<-u.done // claimed units always complete; deliver in order
	}
	if u.err != nil {
		x.finish(u.err)
		return nil, x.err
	}
	x.next++
	select {
	case <-x.ahead: // free one backpressure token
	default:
	}
	return u, nil
}

// finish records the terminal state and stops the workers.
func (x *executor) finish(err error) {
	if x.err == nil {
		x.err = err
		x.cancel(err)
	}
}

// errStreamClosed is the cancel cause installed by Close.
var errStreamClosed = errors.New("core: read stream closed")

// ReadStream is an in-order iterator over the output of a streaming read.
// Call Next until it returns io.EOF (or another error), then — or at any
// earlier point — Close. Next and Stats must be called from one goroutine;
// Close is safe to call from any goroutine (e.g. a connection watchdog)
// and cancels the remaining work.
type ReadStream struct {
	// Width, Height, FPS describe the output configuration, as in
	// ReadResult (valid immediately, before the first Next).
	Width  int
	Height int
	FPS    int

	x     *executor
	stats ReadStats

	// Phase-C state (consumer goroutine only).
	batch     bool // drained by batch Read: admit every result
	video     string
	vsA       *videoState // phase-A generation witness
	fragIDs   []int       // fragments the plan used
	parentMSE float64     // worst quality loss among the plan's fragments
	out       admitBuf
}

// admitBuf is the output a read buffers for phase C as its units are
// consumed in order. Batch reads keep everything (cap unbounded) and
// return the buffer as their result; compressed streams keep their
// encoded GOPs up to Options.StreamAdmitBytes.
type admitBuf struct {
	cap       int64          // <= 0: not buffering (admission off, or outgrew cap)
	gops      [][]byte       // compressed output
	frames    []*frame.Frame // raw output, in the requested layout
	bytes     int64          // encoded bytes in gops
	gopFrames int            // frames gops carry
	sampleRef []*frame.Frame // RGB source frames of sampleGOP
	sampleGOP []byte         // first re-encoded output GOP, for PSNR sampling
}

// add buffers one consumed unit. The slices are shared with the
// consumer, never copied: admission writes them out as-is.
func (a *admitBuf) add(u *readUnit, b *ReadBatch) {
	if a.cap <= 0 {
		return
	}
	a.frames = append(a.frames, b.Frames...)
	if b.GOP == nil {
		return
	}
	a.gops = append(a.gops, b.GOP)
	a.bytes += int64(len(b.GOP))
	a.gopFrames += u.frames
	if u.rgb != nil && a.sampleGOP == nil {
		a.sampleRef, a.sampleGOP = u.rgb, b.GOP
	}
	if a.bytes > a.cap {
		*a = admitBuf{} // outgrew the bound: stream on without admitting
	}
}

// mbpp is the buffered GOPs' bits per pixel at w x h output frames.
func (a *admitBuf) mbpp(w, h int) float64 {
	if pixels := int64(w) * int64(h) * int64(a.gopFrames); pixels > 0 {
		return float64(a.bytes) * 8 / float64(pixels)
	}
	return 0
}

// ReadStream begins a streaming read. The plan/snapshot phase (phase A of
// the read pipeline) runs synchronously under the video lock, so a non-nil
// error here has the same meaning as from Read; the CPU-heavy work then
// runs on the store's worker pool as the caller iterates. Cancelling ctx —
// or calling Close — abandons the remaining decode work at the next GOP
// boundary. Safe for concurrent use.
//
// One contract difference from Read: if eviction under extreme budget
// pressure deletes a planned GOP between planning and its prefetch (a
// race the per-GOP re-snapshot cannot repair when the data is truly
// gone), a batch Read silently retries with a fresh plan, but a stream —
// which may already have delivered units of the old plan — surfaces the
// dangling-ref error to the consumer, who retries the request. Rewritten
// GOPs (joint compression, deferred lossless) are repaired in place on
// both paths.
func (s *Store) ReadStream(ctx context.Context, video string, spec ReadSpec) (*ReadStream, error) {
	ctx, err := liveCtx(ctx)
	if err != nil {
		return nil, err
	}
	return s.openRead(ctx, video, spec, s.opts.DisablePrefetch, false)
}

// openRead runs phase A under the video lock and starts phase B. batch
// selects batch Read's phase-C policy (see the file comment).
func (s *Store) openRead(ctx context.Context, video string, spec ReadSpec, eager, batch bool) (*ReadStream, error) {
	var (
		st  *ReadStream
		job *readJob
	)
	planStart := time.Now()
	err := s.withVideos([]string{video}, func(held map[string]*videoState) error {
		var err error
		st, job, err = s.prepareRead(ctx, held, held[video], spec, eager)
		return err
	})
	obs.Observe(ctx, s.pipe, obs.StagePlan, time.Since(planStart))
	if err != nil {
		return nil, err
	}
	st.video, st.batch = video, batch
	switch {
	case batch:
		st.out.cap = math.MaxInt64
		// Keep one (source frames, encoded GOP) pair so admission can
		// periodically measure exact PSNR and refine the MBPP->PSNR
		// estimator (Section 3.2). Passthrough GOPs have no reference.
		for _, u := range job.units {
			if u.srcs != nil {
				u.keepRGB = true
				break
			}
		}
	case job.r.codec.Compressed() && !s.opts.DisableCache:
		st.out.cap = s.opts.StreamAdmitBytes
	}
	st.x = s.execute(ctx, job)
	return st, nil
}

// Next returns the next output unit in stream order, io.EOF after the
// last one, or the first error (in stream order) the read hit. After a
// non-EOF error the stream is dead and Next keeps returning that error.
func (st *ReadStream) Next() (*ReadBatch, error) {
	u, err := st.x.nextUnit()
	if err != nil {
		return nil, err
	}
	if u == nil {
		if err := st.admit(); err != nil && st.batch {
			st.x.finish(err)
			return nil, err
		}
		st.x.finish(io.EOF)
		return nil, io.EOF
	}
	b := u.batch
	u.batch, u.rgb = nil, nil
	st.out.add(u, b)
	return b, nil
}

// admit is phase C, run once the output is complete: re-acquire the
// video, verify it is still the one phase A planned against (it may have
// been deleted — or deleted and recreated under the same name — while we
// computed; then the data we read is not this video's anymore), and
// cache-admit the buffered output as a materialized view. Batch reads of
// raw output then drive deferred compression (Section 5.2).
func (st *ReadStream) admit() error {
	if !st.batch && len(st.out.gops) == 0 {
		return nil // raw stream, admission off, or outgrew the bound
	}
	s, r := st.x.s, st.x.job.r
	vs := s.acquire(st.video)
	if vs == nil {
		return nil
	}
	defer vs.mu.Unlock()
	if vs != st.vsA {
		return nil
	}
	start := time.Now()
	admitted, err := s.admitLocked(vs, r, &st.out, st.fragIDs, st.parentMSE)
	obs.Observe(st.x.ctx, s.pipe, obs.StageCacheAdmit, time.Since(start))
	if err != nil {
		return err
	}
	st.stats.Admitted = admitted
	if st.batch && !r.codec.Compressed() {
		return s.deferredPressureLocked(vs)
	}
	return nil
}

// Close cancels any remaining work. It is safe to call from any goroutine,
// multiple times, and after Next has returned io.EOF (where it is a
// no-op). It never blocks on in-flight decode work.
func (st *ReadStream) Close() error {
	st.x.cancel(errStreamClosed)
	return nil
}

// Stats reports the read's execution statistics. Plan fields are valid
// immediately; GOPsDecoded and BytesRead grow as the stream progresses
// (prefetched GOP bytes count once fetched). Admitted becomes true only
// after a compressed stream reached clean EOF and its buffered output was
// cache-admitted (see Options.StreamAdmitBytes); raw streams never admit.
func (st *ReadStream) Stats() ReadStats {
	stats := st.stats
	stats.GOPsDecoded = int(st.x.decoded.Load())
	stats.BytesRead += st.x.job.bytesRead.Load()
	return stats
}
