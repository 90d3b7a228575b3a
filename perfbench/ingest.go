package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/quality"
	"repro/internal/visualroad"
	"repro/vss"
)

// cameraIngestSize shapes the camera-ingest workload. A run is several
// rounds; each round sets up a fresh store holding a prefix of both
// cameras' footage, appends live footage while queries run beside it,
// then makes a Maintain pass. The last round's pass also runs joint
// compression, whose candidate search compares every GOP pair across the
// two cameras and so would dominate the run if every round paid it; for
// the same reason the last round ingests the first part of the footage
// only. Every round records the same footage, so rounds are repeated
// samples of ingest and setup_s whose median resists a passing load spike.
type cameraIngestSize struct {
	width, height, fps int
	overlap            float64 // horizontal field shared by the two cameras
	prefixSeconds      int     // footage per camera written while setting up
	liveSeconds        int     // footage per camera appended in the timed ingest
	jointSeconds       int     // liveSeconds of the last round, which adds joint compression
	rounds             int
	lookback           float64 // seconds behind the live edge a query scans
	roots, replicas    int
}

func cameraIngestDefault(seconds int) cameraIngestSize {
	return cameraIngestSize{
		width: 240, height: 136, fps: 8, overlap: 0.5,
		prefixSeconds: 2, liveSeconds: 112, jointSeconds: 16, rounds: max(2, seconds/2),
		lookback: 4, roots: 4, replicas: 2,
	}
}

func runCameraIngest(ctx context.Context, e env) (*report, error) {
	return cameraIngest(ctx, e, cameraIngestDefault(e.seconds))
}

// cameras is a pair of overlapping cameras' footage from frame start on
// the world's timeline, as the YUV420 frames a camera hands its writer.
type cameras [2][]*frame.Frame

var cameraNames = [2]string{"left", "right"}

func renderCameras(w *visualroad.World, start, n int) cameras {
	var c cameras
	for t := start; t < start+n; t++ {
		c[0] = append(c[0], w.LeftFrame(t).Convert(frame.YUV420))
		c[1] = append(c[1], w.RightFrame(t).Convert(frame.YUV420))
	}
	return c
}

// ingestTotals accumulates what the rounds measured.
type ingestTotals struct {
	setups, ingestFPS          []float64
	storedPerFrame             float64
	storageRatio               float64
	appendTime                 time.Duration
	closeTime, maintain, joint time.Duration
	lastMaintain               time.Duration
	gops                       int
	heapMB                     float64
	jointStats                 vss.JointStats
	views                      int
	written, committed         float64
	q                          queryLoop
	ph                         phase
}

func cameraIngest(ctx context.Context, e env, sz cameraIngestSize) (*report, error) {
	rep := newReport()
	var tot ingestTotals
	world := visualroad.NewWorld(visualroad.Config{
		Width: sz.width, Height: sz.height, FPS: sz.fps, Seed: sceneSeed, Overlap: sz.overlap,
	})
	footage := renderCameras(world, recordStart(e.seed, 0), (sz.prefixSeconds+sz.liveSeconds)*sz.fps)
	motion := gopMotion(footage, sz.fps)
	for r := 0; r < sz.rounds; r++ {
		if err := ingestRound(ctx, e, sz, footage, motion, r, r == sz.rounds-1, &tot, rep); err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
	}
	if err := rep.latency(tot.q.lat, "query"); err != nil {
		return nil, err
	}
	rep.endToEnd("setup_s", "setup_s", median(tot.setups), len(tot.setups))
	rep.endToEnd("frames_per_s", "ingest_fps (median round)", median(tot.ingestFPS), len(tot.ingestFPS))
	rep.endToEnd("storage_ratio", "stored bytes / written bytes", tot.storageRatio, 1)
	rep.note("stored_bytes_per_frame", "B", tot.storedPerFrame, 1)
	rep.note("heap_peak_mb", "MB", tot.heapMB, 0)
	rep.note("queries_beside_ingest_frac", "frac", ratio(float64(tot.q.beside), float64(tot.q.busy)), len(tot.q.lat))
	rep.note("maintain_s", "s", (tot.lastMaintain + tot.joint).Seconds(), 1)
	rep.note("error_frac", "frac", ratio(float64(rep.failed), float64(rep.attempted)), rep.attempted)

	// The layer phase is the live ingest with its queries; maintenance is
	// reported by its own figures below, not spread over the queries.
	tot.ph.ops = len(tot.q.lat)
	rep.counterLayers(tot.ph)
	rep.spanLayers(e.tr, tot.ph, "op.query")
	catalog := tot.ph.sum(func(a, b counters) float64 { return float64(b.catalog - a.catalog) })
	rep.layer("catalog.bytes_per_gop", ratio(catalog, float64(tot.gops)), tot.gops)
	rounds := float64(sz.rounds)
	rep.layer("core.query.gops_pruned_frac", ratio(float64(tot.q.pruned), float64(tot.q.considered)), int(tot.q.considered))
	rep.layer("core.writer.append_blocked_ms_per_gop", ratio(ms(tot.appendTime), float64(tot.gops)), tot.gops)
	rep.layer("core.writer.close_ms", ratio(ms(tot.closeTime), 2*rounds), 2*sz.rounds)
	rep.layer("core.maintain_ms", ms(tot.maintain)/rounds, sz.rounds)
	rep.layer("core.joint_ms", ms(tot.joint), 1)
	j := tot.jointStats
	rep.layer("core.joint_accept_frac", ratio(float64(j.Compressed), float64(j.Pairs)), j.Pairs)
	rep.layer("core.joint_saved_frac", 1-ratio(float64(j.BytesAfter), float64(j.BytesBefore)), j.Compressed)
	rep.layer("core.views_end", float64(tot.views)/rounds, sz.rounds)
	rep.layer("storage.write_amp", ratio(tot.written, tot.committed), 0)
	return rep, nil
}

// ingestRound sets up a store with a prefix of both cameras, ingests the
// live footage beside predicate queries, runs Maintain (and, when joint
// is set, joint compression), and checks the result.
func ingestRound(ctx context.Context, e env, sz cameraIngestSize, footage cameras, motion [2][]float64,
	round int, joint bool, tot *ingestTotals, rep *report) error {
	prefix, live := sz.prefixSeconds*sz.fps, sz.liveSeconds*sz.fps
	if joint {
		live = sz.jointSeconds * sz.fps
		gops := (prefix + live + sz.fps - 1) / sz.fps
		footage = cameras{footage[0][:prefix+live], footage[1][:prefix+live]}
		motion = [2][]float64{motion[0][:gops], motion[1][:gops]}
	}
	spec := vss.WriteSpec{FPS: sz.fps, Codec: vss.H264, Quality: 85}

	dir := filepath.Join(e.dir, fmt.Sprintf("round%d", round))
	roots, catalogDir := vss.ShardRoots(dir, sz.roots), filepath.Join(dir, "catalog")
	start := time.Now()
	b, err := vss.NewShardedBackend(roots, sz.replicas)
	if err != nil {
		return err
	}
	sys, err := vss.OpenWith(dir, vss.Options{GOPFrames: sz.fps}, wrapBackend(b, e.tr, "storage"))
	if err != nil {
		return err
	}
	defer sys.Close()
	for cam, name := range cameraNames {
		if err := sys.Create(name, 0); err != nil {
			return err
		}
		if err := sys.Write(name, spec, footage[cam][:prefix]); err != nil {
			return err
		}
	}
	tot.setups = append(tot.setups, time.Since(start).Seconds())

	before, err := readCounters(ctx, sys, nil, catalogDir)
	if err != nil {
		return err
	}
	heap := startHeapPeak()
	st, err := ingestLive(ctx, e, sys, sz, spec, motion, footage, prefix, &tot.q, rep)
	heapMB := heap.Stop()
	if err != nil {
		return err
	}
	mid, err := readCounters(ctx, sys, nil, catalogDir)
	if err != nil {
		return err
	}

	// Untimed checks of what the ingest committed, before maintenance
	// rewrites any GOP. The query parity check reads every frame, so only
	// the last (short) round makes it, before maintenance and again after
	// joint compression.
	for cam, name := range cameraNames {
		checkStored(rep, sys, name, len(footage[cam]))
		if joint {
			checkQueryParity(ctx, rep, sys, name, "after ingest", motion[cam], sz.fps)
		}
	}

	ingested := gopBytes(sys, cameraNames[:]...)
	resume, err := readCounters(ctx, sys, nil, catalogDir)
	if err != nil {
		return err
	}
	heap = startHeapPeak()
	mStart := time.Now()
	if err := sys.Maintain(); err != nil {
		heap.Stop()
		return fmt.Errorf("maintain: %w", err)
	}
	jStart := time.Now()
	var js vss.JointStats
	if joint {
		if js, err = sys.JointCompress(vss.MergeUnprojected); err != nil {
			heap.Stop()
			return fmt.Errorf("joint compression: %w", err)
		}
	}
	end := time.Now()
	tot.heapMB = max(tot.heapMB, heapMB, heap.Stop())
	after, err := readCounters(ctx, sys, nil, catalogDir)
	if err != nil {
		return err
	}
	tot.ph.intervals = append(tot.ph.intervals, [2]counters{before, mid})
	tot.ingestFPS = append(tot.ingestFPS, float64(2*live)/st.wall.Seconds())
	tot.appendTime += st.appendBlocked
	tot.closeTime += st.close
	tot.gops += st.gops
	tot.maintain += jStart.Sub(mStart)
	tot.views += viewsEnd(sys, cameraNames[:]...)
	tot.written += float64(mid.backend.BytesWritten - before.backend.BytesWritten + after.backend.BytesWritten - resume.backend.BytesWritten)
	tot.committed += float64(gopBytes(sys, cameraNames[:]...))
	if joint {
		tot.lastMaintain, tot.joint, tot.jointStats = jStart.Sub(mStart), end.Sub(jStart), js
		stored := float64(dirsBytes(roots))
		tot.storedPerFrame = stored / float64(2*len(footage[0]))
		tot.storageRatio = stored / float64(ingested)
		for cam, name := range cameraNames {
			checkJointReadback(rep, sys, name, footage[cam])
			checkQueryParity(ctx, rep, sys, name, "after joint compression", motion[cam], sz.fps)
		}
	}
	return nil
}

// ingestStats is what one round's live ingest took.
type ingestStats struct {
	wall, appendBlocked, close time.Duration
	gops                       int
}

// queryLoop accumulates the predicate queries run beside ingest. busy is
// the time spent in them and beside the part of it before the ingest
// ended.
type queryLoop struct {
	lat                []float64
	considered, pruned int64
	busy, beside       time.Duration
}

// ingestLive appends the live footage of both cameras, GOP by GOP
// round-robin from one goroutine through pipelined writers, while a
// second goroutine runs closed-loop predicate queries over the last few
// seconds of the live prefix until the last Close. wall runs from the
// first Append to the last Close.
func ingestLive(ctx context.Context, e env, sys *vss.System, sz cameraIngestSize, spec vss.WriteSpec,
	motion [2][]float64, footage cameras, prefix int, q *queryLoop, rep *report) (ingestStats, error) {
	var st ingestStats
	var ws [2]*vss.Writer
	for cam, name := range cameraNames {
		w, err := sys.OpenWriterWith(name, spec, vss.WriteOptions{})
		if err != nil {
			return st, err
		}
		ws[cam] = w
	}
	done := make(chan struct{})
	var spans [][2]time.Time
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		spans = queries(ctx, e, sys, sz, motion, done, q, rep)
	}()

	n := len(footage[0])
	var err error
	for i := prefix; i < n && err == nil; i += sz.fps {
		for cam := range ws {
			opCtx, endOp := e.tr.beginOp(ctx, "op.append")
			_, endCall := e.tr.begin(opCtx, "call.append")
			t := time.Now()
			err = ws[cam].Append(footage[cam][i:min(i+sz.fps, n)]...)
			st.appendBlocked += time.Since(t)
			endCall()
			endOp()
			st.gops++
			if err != nil {
				break
			}
		}
	}
	for _, w := range ws {
		t := time.Now()
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		st.close += time.Since(t)
	}
	end := time.Now()
	st.wall = end.Sub(start)
	close(done)
	wg.Wait()
	for _, s := range spans {
		q.busy += s[1].Sub(s[0])
		if s[0].Before(end) {
			q.beside += min(s[1].Sub(s[0]), end.Sub(s[0]))
		}
	}
	return st, err
}

// queries runs ReadWhere queries back to back, alternating cameras,
// over the last lookback seconds of the readable prefix, each with a
// motion predicate that about half of the window's GOPs can match. The
// readable prefix ends at the video's Duration, which the program only
// advances when a writer closes: while the live writers are open the
// queries scan the footage written at set-up, beside the GOPs being
// committed. Matches must lie inside what has been committed. queries
// starts no query once done is closed, so every query it times started
// while the store was still being written, and it returns the start and
// end of each timed query.
func queries(ctx context.Context, e env, sys *vss.System, sz cameraIngestSize, motion [2][]float64,
	done <-chan struct{}, q *queryLoop, rep *report) [][2]time.Time {
	var spans [][2]time.Time
	for i := 0; ; i++ {
		select {
		case <-done:
			return spans
		default:
		}
		name := cameraNames[i%2]
		meta, _, err := sys.Store().Info(name)
		if err != nil {
			rep.check(false, "query %s: %v", name, err)
			continue
		}
		t0 := max(0, meta.Duration-sz.lookback)
		g0, g1 := int(t0), min(int(math.Ceil(meta.Duration)), len(motion[i%2]))
		pred, err := motionPredicate(motion[i%2][g0:max(g1, g0+1)])
		if err != nil {
			rep.check(false, "query predicate: %v", err)
			continue
		}
		rep.attempted++
		opCtx, endOp := e.tr.beginOp(ctx, "op.query")
		callCtx, endCall := e.tr.begin(opCtx, "call.query")
		callCtx, cancel := context.WithTimeout(callCtx, opTimeout)
		start := time.Now()
		res, err := sys.ReadWhere(callCtx, name, pred, t0, 0)
		stop := time.Now()
		d := stop.Sub(start)
		cancel()
		endCall()
		endOp()
		if err != nil {
			rep.check(false, "query %s [%g, end): %v", name, t0, err)
			continue
		}
		q.lat = append(q.lat, ms(d))
		spans = append(spans, [2]time.Time{start, stop})
		q.considered += int64(res.Stats.GOPsConsidered)
		q.pruned += int64(res.Stats.GOPsSkipped)
		lo := int(t0 * float64(sz.fps))
		committed, err := committedFrames(sys, name)
		for _, m := range res.Matches {
			rep.check(err == nil && m.Index >= lo && m.Index < committed,
				"query %s: match at frame %d outside the committed [%d, %d)", name, m.Index, lo, committed)
		}
	}
}

// gopMotion returns, per camera, the largest per-frame motion in each GOP
// of the footage, from the same per-GOP analysis the store's summaries
// use.
func gopMotion(footage cameras, gopFrames int) [2][]float64 {
	var out [2][]float64
	for cam, frames := range footage {
		for i := 0; i < len(frames); i += gopFrames {
			top := 0.0
			for _, info := range analyzeGOPs(frames[i:min(i+gopFrames, len(frames))], gopFrames) {
				top = max(top, info.Motion)
			}
			out[cam] = append(out[cam], top)
		}
	}
	return out
}

// analyzeGOPs runs vss.AnalyzeFrames GOP by GOP, as ingest and queries
// do: motion never reaches across a GOP boundary.
func analyzeGOPs(frames []*frame.Frame, gopFrames int) []vss.FrameInfo {
	var out []vss.FrameInfo
	for i := 0; i < len(frames); i += gopFrames {
		gop := frames[i:min(i+gopFrames, len(frames))]
		rgb := make([]*frame.Frame, len(gop))
		for j, f := range gop {
			rgb[j] = f.Convert(frame.RGB)
		}
		out = append(out, vss.AnalyzeFrames(rgb)...)
	}
	return out
}

// motionPredicate returns "motion > m" with m the median of the given
// GOPs' largest motion: the planner can prune about half of them from
// their summaries, so every query decodes about the same share of its
// window whatever the seed's scene.
func motionPredicate(gopMax []float64) (vss.Predicate, error) {
	return vss.ParsePredicate(fmt.Sprintf("motion > %.4f", median(gopMax)))
}

// committedFrames counts the frames in the GOPs of a video's original
// view: what a writer has committed so far.
func committedFrames(sys *vss.System, name string) (int, error) {
	_, phys, err := sys.Store().Info(name)
	n := 0
	for _, p := range phys {
		if p.Orig {
			for _, g := range p.GOPs {
				n += g.Frames
			}
		}
	}
	return n, err
}

// checkStored verifies that the original view of a video holds exactly
// the frames appended to it.
func checkStored(rep *report, sys *vss.System, name string, want int) {
	got, err := committedFrames(sys, name)
	rep.check(err == nil && got == want, "%s: %d frames stored, want %d (%v)", name, got, want, err)
}

// checkQueryParity verifies that a full-length ReadWhere, with a motion
// predicate about half of the video's GOPs can match, returns exactly the
// frames a full raw RGB read filtered with AnalyzeFrames, GOP by GOP,
// keeps.
func checkQueryParity(ctx context.Context, rep *report, sys *vss.System, name, when string, gopMax []float64, gopFrames int) {
	pred, err := motionPredicate(gopMax)
	if err != nil {
		rep.check(false, "%s %s: query predicate: %v", name, when, err)
		return
	}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	res, err := sys.ReadWhere(ctx, name, pred, 0, 0)
	if err != nil {
		rep.check(false, "%s %s: query: %v", name, when, err)
		return
	}
	full, err := sys.Read(name, vss.ReadSpec{P: vss.Physical{Format: vss.RGB}})
	if err != nil {
		rep.check(false, "%s %s: full read: %v", name, when, err)
		return
	}
	var want []int
	for i, info := range analyzeGOPs(full.Frames, gopFrames) {
		if pred.Match(info) {
			want = append(want, i)
		}
	}
	if len(want) != len(res.Matches) {
		rep.check(false, "%s %s: ReadWhere returned %d matches, the filtered full read %d", name, when, len(res.Matches), len(want))
		return
	}
	for i, m := range res.Matches {
		if m.Index != want[i] || !bytes.Equal(m.Frame.Data, full.Frames[want[i]].Data) {
			rep.check(false, "%s %s: ReadWhere match %d is frame %d, the filtered full read's is %d (same pixels: %t)",
				name, when, i, m.Index, want[i], bytes.Equal(m.Frame.Data, full.Frames[want[i]].Data))
			return
		}
	}
}

// checkJointReadback verifies, after joint compression, that every frame
// of a video reads back above the joint-compression quality floor.
func checkJointReadback(rep *report, sys *vss.System, name string, src []*frame.Frame) {
	floor := sys.Store().Options().JointMinPSNR
	res, err := sys.Read(name, vss.ReadSpec{P: vss.Physical{Format: vss.YUV420}})
	if err != nil || len(res.Frames) != len(src) {
		rep.check(false, "%s: read-back after joint compression: %d frames, want %d (%v)", name, len(res.Frames), len(src), err)
		return
	}
	for i, f := range res.Frames {
		p, err := quality.PSNR(f, src[i])
		if err != nil || p < floor {
			rep.check(false, "%s: frame %d reads back at %.1f dB, below %.0f (%v)", name, i, p, floor, err)
			return
		}
	}
}

// gopBytes sums the catalog's GOP sizes over every view of the videos.
func gopBytes(sys *vss.System, names ...string) int64 {
	var total int64
	for _, name := range names {
		if n, err := sys.TotalBytes(name); err == nil {
			total += n
		}
	}
	return total
}
