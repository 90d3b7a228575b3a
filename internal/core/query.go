package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/frame"
	"repro/internal/index"
	"repro/internal/obs"
)

// This file implements predicate reads (ReadWhere / ReadStreamWhere):
// the analytics read mode that answers "frames matching P over [t0,t1)"
// from the temporal index and the per-GOP feature summaries, decoding
// only candidate GOPs. A predicate read is not a separate executor: it
// is the read executor of stream.go running a pruned plan whose units
// each decode one candidate GOP and filter its frames in the interval.
//
// The plan is three steps, the first two free at query time:
//
//  1. index.Temporal over the original view's GOP spans restricts the
//     scan to GOPs overlapping [t0, t1).
//  2. Each candidate's GOPSummary is tested with pred.CanMatch: bounds
//     that prove the predicate false on every frame skip the GOP
//     entirely — it is never fetched or decoded. Summaries are sound
//     over-approximations (see summary.go), so skipping never loses a
//     match; GOPs without a summary are decoded conservatively.
//  3. Each surviving GOP becomes one scan unit of the standard phase-B
//     executor (prefetch window, CPU-pool decode, stale-fetch repair,
//     ordered delivery); the exact predicate is applied per frame and
//     matches are returned as RGB frames — byte-identical to a full raw
//     RGB read of the same video filtered client-side with
//     AnalyzeFrames, which the parity suite pins. ReadWhere drains the
//     same stream ReadStreamWhere returns.
//
// Predicate reads always scan the original physical view: summaries are
// computed from the original's reconstructed frames, and evaluating
// against a transcoded cached view would change the pixels under the
// predicate. They deliberately skip cache admission and LRU touches —
// a filtered frame subset is not a materialized view, and an analytics
// sweep should not perturb the eviction order of interactive reads.

// QueryStats instruments one predicate read.
type QueryStats struct {
	// GOPsConsidered is the number of GOPs overlapping the interval.
	GOPsConsidered int
	// GOPsSkipped is how many of those the summary bounds pruned
	// without fetching or decoding.
	GOPsSkipped int
	// GOPsDecoded is the number of GOP streams actually decoded.
	GOPsDecoded int
	// NoSummary counts candidate GOPs that had no summary and were
	// decoded conservatively (pre-summary stores before Maintain
	// backfills them, or GOPs invalidated by joint compression).
	NoSummary int
	// FramesScanned / FramesMatched count exact predicate evaluations
	// and hits; their ratio is the query's selectivity.
	FramesScanned int
	FramesMatched int
	// BytesRead is the stored bytes fetched.
	BytesRead int64
}

// Match is one frame satisfying the predicate.
type Match struct {
	// Index is the source frame index in the original video.
	Index int
	// Time is the frame's position in seconds (Index / source fps).
	Time float64
	// Frame is the matched frame in RGB at source resolution.
	Frame *frame.Frame
	// Info is the frame's content record (motion, detections) — the
	// values the predicate matched against.
	Info FrameInfo
}

// QueryResult is a completed batch predicate read.
type QueryResult struct {
	Width, Height, FPS int
	Matches            []Match
	Stats              QueryStats
}

// QueryBatch is one streamed group of matches: all matching frames of
// one decoded GOP, in frame order.
type QueryBatch struct {
	Matches []Match
}

// gopScan is the work of one predicate-read unit: evaluate pred over
// the local frames [lo, hi) of the unit's decoded GOP, whose first frame
// is source frame start.
type gopScan struct {
	pred   Predicate
	fps    int
	start  int
	lo, hi int
}

// queryJob carries one predicate read from phase A to phase B.
type queryJob struct {
	readJob
	width, height, fps int
	stats              QueryStats // planning-time counters
}

// FrameWindow maps the half-open interval [t0, t1) onto source frame
// indices [i0, i1) at the given frame rate — the exact window predicate
// reads scan, exported so clients can reproduce match sets from a full
// read.
func FrameWindow(fps int, t0, t1 float64) (int, int) {
	i0 := int(math.Floor(t0*float64(fps) + timeEps))
	i1 := int(math.Ceil(t1*float64(fps) - timeEps))
	if i0 < 0 {
		i0 = 0
	}
	if i1 < i0 {
		i1 = i0
	}
	return i0, i1
}

// ReadWhere scans [t0, t1) of the video's original frames and returns
// those matching pred, consulting the temporal index and per-GOP
// summaries to decode only GOPs that can match. t1 <= 0 means the end
// of the video. Safe for concurrent use.
func (s *Store) ReadWhere(video string, pred Predicate, t0, t1 float64) (*QueryResult, error) {
	return s.ReadWhereContext(context.Background(), video, pred, t0, t1)
}

// ReadWhereContext is ReadWhere with cancellation (the same promptness
// contract as ReadContext: workers stop between GOP-granular tasks).
func (s *Store) ReadWhereContext(ctx context.Context, video string, pred Predicate, t0, t1 float64) (*QueryResult, error) {
	ctx, err := liveCtx(ctx)
	if err != nil {
		return nil, err
	}
	return retryEager(s, func(eager bool) (*QueryResult, error) {
		return s.readWhereOnce(ctx, video, pred, t0, t1, eager)
	})
}

// readWhereOnce runs one predicate read attempt by draining its stream.
func (s *Store) readWhereOnce(ctx context.Context, video string, pred Predicate, t0, t1 float64, eager bool) (*QueryResult, error) {
	st, err := s.openQuery(ctx, video, pred, t0, t1, eager)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	out := &QueryResult{Width: st.Width, Height: st.Height, FPS: st.FPS}
	for {
		b, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		out.Matches = append(out.Matches, b.Matches...)
	}
	out.Stats = st.Stats()
	return out, nil
}

// prepareQuery is phase A: under the video lock, restrict to GOPs
// overlapping the interval via the temporal index, prune by summary
// bounds, and snapshot the survivors' decode recipes. The job is rebuilt
// from scratch on every withVideos attempt: an attempt that chased a
// joint partner outside the lock set registered fetches no prefetch
// stage will ever start.
func (s *Store) prepareQuery(ctx context.Context, video string, pred Predicate, t0, t1 float64, eager bool) (*queryJob, error) {
	if pred == nil {
		return nil, fmt.Errorf("%w: nil predicate", ErrInvalidSpec)
	}
	var job *queryJob
	planStart := time.Now()
	err := s.withVideos([]string{video}, func(held map[string]*videoState) error {
		job = &queryJob{}
		vs := held[video]
		v := vs.meta
		orig := vs.original()
		if orig == nil || len(orig.GOPs) == 0 {
			return nil // nothing written yet: empty result
		}
		end := t1
		if end <= 0 {
			end = v.Duration
		}
		// NaN compares false against everything, so test finiteness
		// explicitly or a NaN bound would slip past the range check.
		if math.IsNaN(t0) || math.IsInf(t0, 0) || math.IsNaN(end) || math.IsInf(end, 0) {
			return fmt.Errorf("%w: non-finite interval bound", ErrInvalidSpec)
		}
		if t0 < 0 || end < t0 || end > v.Duration+timeEps {
			return fmt.Errorf("%w: interval [%g, %g) outside [0, %g)", ErrInvalidSpec, t0, end, v.Duration)
		}
		job.width, job.height, job.fps = orig.Width, orig.Height, orig.FPS
		i0, i1 := FrameWindow(orig.FPS, t0, end)

		// The temporal index over the original's GOP spans names the
		// candidate set; everything outside [t0, end) is never touched.
		spans := make([]index.Span, len(orig.GOPs))
		for i := range orig.GOPs {
			g := &orig.GOPs[i]
			start, stop := orig.gopSpan(g)
			spans[i] = index.Span{Seq: g.Seq, Start: start, End: stop}
		}
		idx, err := index.NewTemporal(spans)
		if err != nil {
			return err
		}

		var planStats ReadStats
		c := &snapCollector{ctx: ctx, stats: &planStats, eager: eager, bytes: &job.bytesRead}
		for _, sp := range idx.Covering(t0, end) {
			g := findGOP(orig, sp.Seq)
			if g == nil {
				continue
			}
			lo, hi := max(i0-g.StartFrame, 0), min(i1-g.StartFrame, g.Frames)
			if hi <= lo {
				continue
			}
			job.stats.GOPsConsidered++
			if g.Summary == nil {
				job.stats.NoSummary++
			} else if !pred.CanMatch(g.Summary) {
				job.stats.GOPsSkipped++
				continue
			}
			snap, err := s.snapshotGOP(held, vs, orig, g, c)
			if err != nil {
				return err
			}
			dj := &decodeJob{
				snap:  snap,
				key:   jobKey{video: video, phys: orig.ID, seq: g.Seq, from: 0, to: -1},
				bytes: &job.bytesRead,
				from:  0,
				to:    -1,
			}
			job.units = append(job.units, &readUnit{
				scan: &gopScan{pred: pred, fps: orig.FPS, start: g.StartFrame, lo: lo, hi: hi},
				jobs: []*decodeJob{dj},
				done: make(chan struct{}),
			})
		}
		job.stats.BytesRead = planStats.BytesRead
		job.fetches = c.fetches
		return nil
	})
	obs.Observe(ctx, s.pipe, obs.StagePlan, time.Since(planStart))
	if err != nil {
		return nil, err
	}
	return job, nil
}

// scanGOP applies the exact predicate to the unit's decoded frames. The
// analysis runs on the RGB conversions — the same frame.Convert the raw
// read path applies — so matched frames are byte-identical to a full
// raw RGB read filtered client-side.
func (u *readUnit) scanGOP() {
	sc := u.scan
	rgb, infos := analyzeRGB(u.jobs[0].frames)
	for j := sc.lo; j < min(sc.hi, len(infos)); j++ {
		u.scanned++
		if !sc.pred.Match(infos[j]) {
			continue
		}
		idx := sc.start + j
		u.matches = append(u.matches, Match{
			Index: idx,
			Time:  float64(idx) / float64(sc.fps),
			Frame: rgb[j],
			Info:  infos[j],
		})
	}
}

// QueryStream is an in-order streaming predicate read: Next returns the
// matches of one decoded GOP at a time, skipping GOPs with no matches,
// while later candidates prefetch and decode ahead.
type QueryStream struct {
	// Width, Height, FPS describe the source frames matches are drawn
	// from (frames are RGB at source resolution).
	Width, Height, FPS int

	x     *executor
	stats QueryStats
}

// ReadStreamWhere opens a streaming predicate read over [t0, t1) (t1 <=
// 0 means the end of the video). The returned stream must be drained to
// io.EOF or closed. Planning, pruning, and decode mechanics match
// ReadWhere exactly; only delivery differs.
func (s *Store) ReadStreamWhere(ctx context.Context, video string, pred Predicate, t0, t1 float64) (*QueryStream, error) {
	ctx, err := liveCtx(ctx)
	if err != nil {
		return nil, err
	}
	return s.openQuery(ctx, video, pred, t0, t1, s.opts.DisablePrefetch)
}

// openQuery runs phase A of a predicate read and starts its executor.
func (s *Store) openQuery(ctx context.Context, video string, pred Predicate, t0, t1 float64, eager bool) (*QueryStream, error) {
	job, err := s.prepareQuery(ctx, video, pred, t0, t1, eager)
	if err != nil {
		return nil, err
	}
	return &QueryStream{
		Width: job.width, Height: job.height, FPS: job.fps,
		x: s.execute(ctx, &job.readJob), stats: job.stats,
	}, nil
}

// Next returns the next non-empty batch of matches in frame order, or
// io.EOF once every candidate GOP has been scanned. After a non-nil
// error the stream is dead and Next keeps returning that error.
func (st *QueryStream) Next() (*QueryBatch, error) {
	for {
		u, err := st.x.nextUnit()
		if err != nil {
			return nil, err
		}
		if u == nil {
			st.x.finish(io.EOF)
			return nil, io.EOF
		}
		st.stats.GOPsDecoded += u.jobs[0].decoded
		st.stats.FramesScanned += u.scanned
		st.stats.FramesMatched += len(u.matches)
		if len(u.matches) > 0 {
			m := u.matches
			u.matches = nil
			return &QueryBatch{Matches: m}, nil
		}
	}
}

// Close cancels the stream. Safe to call at any point and more than
// once; after Close, Next reports the cancellation. Unlike
// ReadStream.Close, call it from the goroutine consuming Next.
func (st *QueryStream) Close() error {
	st.x.finish(errStreamClosed)
	return nil
}

// Stats reports the stream's counters: planning-time values (considered
// / skipped / no-summary) are complete as soon as the stream opens, the
// decode and match counters once Next has returned io.EOF. Call it from
// the goroutine consuming Next.
func (st *QueryStream) Stats() QueryStats {
	stats := st.stats
	stats.BytesRead += st.x.job.bytesRead.Load()
	return stats
}
