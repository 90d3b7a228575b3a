package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/quality"
	"repro/internal/visualroad"
	"repro/vss"
)

// cacheReadsSize shapes the cache-reads workload.
type cacheReadsSize struct {
	width, height, fps int
	videoSeconds       int     // length of each of the two videos
	budgetMultiple     float64 // per-video budget as a multiple of the original
	setups             int     // set-ups timed for setup_s (the last one is used)
	warmup, reads      int     // untimed warm-up reads, then timed reads
	decodeEvery        int     // about one read in this many has a GOP decoded as a check
}

// cacheReadsDefault is the benchmark's size: 40 reads per nominal second
// of --seconds, enough for p95 with ten samples beyond it at 17 s.
func cacheReadsDefault(seconds int) cacheReadsSize {
	return cacheReadsSize{
		width: 240, height: 136, fps: 8, videoSeconds: 24, budgetMultiple: 3,
		setups: 3, warmup: 60, reads: 40 * seconds, decodeEvery: 6,
	}
}

// sceneSeed fixes the VisualRoad worlds (road, buildings, the set of
// vehicles) the workloads record; --seed picks where on each world's
// timeline a recording starts, and every request. Codec cost follows
// scene content, so a different scene per seed would add its own spread
// to every timing without measuring anything about the program.
const sceneSeed = 7

// recordStart is the first frame of a recording on its world's timeline.
func recordStart(seed, salt int64) int {
	return rand.New(rand.NewSource(seed*31 + salt)).Intn(1 << 16)
}

// record renders n frames of a world's left camera from frame start.
func record(cfg visualroad.Config, start, n int) []*frame.Frame {
	w := visualroad.NewWorld(cfg)
	out := make([]*frame.Frame, n)
	for t := range out {
		out[t] = w.LeftFrame(start + t)
	}
	return out
}

// rawPSNRFloor is the least mean PSNR (dB) a raw read may have against
// the source frames resized to the requested size.
const rawPSNRFloor = 20

func runCacheReads(ctx context.Context, e env) (*report, error) {
	return cacheReads(ctx, e, cacheReadsDefault(e.seconds))
}

// readOp is one read of the seeded sequence.
type readOp struct {
	video         string
	spec          vss.ReadSpec
	frames        int // expected output frame count
	width, height int
	first         int // first source frame of the window
}

// cacheReadMix deals n reads in the paper's random-read shape: window
// starts Zipf-skewed (zipfAlpha) over the GOP grid (1 s GOPs), windows
// 1-4 s long, and one of four output formats. starts lists the window
// starts from most to least popular. Video, length and format
// are spread evenly: nothing known favors one over another. Starts and
// shapes each come as their quota (see quota) in seeded order, so every
// seed asks for the same amount of each kind of work.
func cacheReadMix(rng *rand.Rand, sz cacheReadsSize, videos []string, starts []int, n int) []readOp {
	ranks := deck(rng, quota(zipfWeights(len(starts), zipfAlpha), n))
	shapes := make([]float64, len(videos)*4*4) // video x length x format
	for i := range shapes {
		shapes[i] = 1 / float64(len(shapes))
	}
	dealt := deck(rng, quota(shapes, n))
	ops := make([]readOp, n)
	for i := range ops {
		shape := dealt[i]
		t0 := starts[ranks[i]]
		t1 := min(t0+1+shape/len(videos)%4, sz.videoSeconds)
		op := readOp{video: videos[shape%len(videos)], width: sz.width, height: sz.height}
		op.spec.T = vss.Temporal{Start: float64(t0), End: float64(t1)}
		switch shape / (len(videos) * 4) {
		case 0:
			op.spec.P.Codec = vss.HEVC
		case 1:
			op.spec.P = vss.Physical{Codec: vss.H264, Quality: 70}
		case 2: // raw quarter resolution
			op.width, op.height = sz.width/4, sz.height/4
		case 3:
			op.spec.P.Codec = vss.HEVC
			op.width, op.height = sz.width/2, sz.height/2
		}
		if op.width != sz.width {
			op.spec.S = vss.Spatial{Width: op.width, Height: op.height}
		}
		op.first = t0 * sz.fps
		op.frames = (t1 - t0) * sz.fps
		ops[i] = op
	}
	return ops
}

// cacheReads runs the workload at the given size.
func cacheReads(ctx context.Context, e env, sz cacheReadsSize) (*report, error) {
	rep := newReport()
	videos := []string{"cam0", "cam1"}
	src := map[string][]*frame.Frame{}
	for i, v := range videos {
		src[v] = record(visualroad.Config{Width: sz.width, Height: sz.height, FPS: sz.fps, Seed: sceneSeed + int64(i)},
			recordStart(e.seed, int64(i)), sz.videoSeconds*sz.fps)
	}
	opts := vss.Options{GOPFrames: sz.fps, BudgetMultiple: sz.budgetMultiple}

	var sys *vss.System
	var dataDir, catalogDir string
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if sys != nil {
			sys.Close()
		}
		dir := filepath.Join(e.dir, fmt.Sprintf("setup%d", i))
		dataDir, catalogDir = filepath.Join(dir, "data"), filepath.Join(dir, "catalog")
		start := time.Now()
		var err error
		if sys, err = openLocal(dir, opts, e.tr); err != nil {
			return nil, err
		}
		for _, v := range videos {
			if err := sys.Create(v, 0); err != nil {
				return nil, err
			}
			if err := sys.Write(v, vss.WriteSpec{FPS: sz.fps, Codec: vss.H264, Quality: 85}, src[v]); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer sys.Close()
	rep.endToEnd("setup_s", "setup_s", median(setups), len(setups))
	origBytes, err := sys.TotalBytes(videos[0])
	if err != nil {
		return nil, err
	}
	origBytes1, err := sys.TotalBytes(videos[1])
	if err != nil {
		return nil, err
	}
	budget := int64(sz.budgetMultiple * float64(origBytes))

	rng := rand.New(rand.NewSource(e.seed))
	starts := rng.Perm(sz.videoSeconds - 1) // hot starts differ by seed
	warm, ops := cacheReadMix(rng, sz, videos, starts, sz.warmup), cacheReadMix(rng, sz, videos, starts, sz.reads)
	checkRng := rand.New(rand.NewSource(e.seed + 1))
	for i, op := range warm {
		if _, err := sys.ReadContext(ctx, op.video, op.spec); err != nil {
			return nil, fmt.Errorf("warm-up read %d: %w", i, err)
		}
	}

	before, err := readCounters(ctx, sys, nil, catalogDir)
	if err != nil {
		return nil, err
	}
	heap := startHeapPeak()
	var (
		lat                                  []float64
		readTime                             time.Duration
		outFrames, gopsDecoded               int
		admitted, passthrough, compressedOps int
		workingSet                           = map[string]int64{}
		sum                                  = fnv.New64a()
	)
	for i, op := range ops {
		rep.attempted++
		opCtx, endOp := e.tr.beginOp(ctx, "op.read")
		callCtx, endCall := e.tr.begin(opCtx, "call.read")
		callCtx, cancel := context.WithTimeout(callCtx, opTimeout)
		start := time.Now()
		res, err := sys.ReadContext(callCtx, op.video, op.spec)
		d := time.Since(start)
		cancel()
		endCall()
		endOp()
		readTime += d
		if err != nil {
			rep.check(false, "read %d (%s %+v): %v", i, op.video, op.spec, err)
			continue
		}
		lat = append(lat, ms(d))
		if e.plant == "drop-frame" && i == 0 {
			dropFrame(res)
		}
		outFrames += res.FrameCount()
		gopsDecoded += res.Stats.GOPsDecoded
		if res.Stats.Admitted {
			admitted++
		}
		if op.spec.P.Codec != "" {
			compressedOps++
			if res.Stats.GOPsDecoded == 0 {
				passthrough++
			}
		}
		workingSet[fmt.Sprintf("%s %+v", op.video, op.spec)] = outputBytes(res)
		fmt.Fprintf(sum, "%d:", i)
		for _, g := range res.GOPs {
			sum.Write(g)
		}
		for _, f := range res.Frames {
			sum.Write(f.Data)
		}
		checkRead(rep, i, op, res, src[op.video], checkRng.Intn(sz.decodeEvery) == 0)
	}
	heapMB := heap.Stop()
	after, err := readCounters(ctx, sys, nil, catalogDir)
	if err != nil {
		return nil, err
	}

	if err := rep.latency(lat, "read"); err != nil {
		return nil, err
	}
	rep.endToEnd("frames_per_s", "read_fps", ratio(float64(outFrames), readTime.Seconds()), len(lat))
	stored := float64(dirBytes(dataDir))
	rep.endToEnd("storage_ratio", "stored bytes / written bytes", stored/float64(origBytes+origBytes1), 0)
	rep.note("stored_bytes_per_frame", "B", stored/float64(len(videos)*sz.videoSeconds*sz.fps), 0)
	rep.note("heap_peak_mb", "MB", heapMB, 0)

	var ws int64
	for _, b := range workingSet {
		ws += b
	}
	wsPerVideo := ws / int64(len(videos))
	rep.check(wsPerVideo > budget, "view working set %d B/video does not exceed the %d B budget", wsPerVideo, budget)
	rep.note("error_frac", "frac", ratio(float64(rep.failed), float64(rep.attempted)), rep.attempted)
	rep.note("budget_bytes_per_video", "B", float64(budget), 0)
	rep.note("working_set_bytes_per_video", "B", float64(wsPerVideo), len(workingSet))
	rep.sum = sum.Sum64()

	ph := timed(before, after, len(lat))
	rep.counterLayers(ph)
	rep.spanLayers(e.tr, ph, "op.read")
	rep.layer("core.gops_decoded_per_read", ratio(float64(gopsDecoded), float64(len(lat))), len(lat))
	rep.layer("core.passthrough_frac", ratio(float64(passthrough), float64(compressedOps)), compressedOps)
	rep.layer("core.admitted_frac", ratio(float64(admitted), float64(len(lat))), len(lat))
	rep.layer("core.views_end", float64(viewsEnd(sys, videos...)), 0)
	return rep, nil
}

// openLocal opens a store on the default single-root localfs layout
// (<dir>/data), wrapped for tracing when tr is set. Constructing the
// backend here rather than letting Open pick it keeps both passes on
// the same backend whatever VSS_BACKEND says.
func openLocal(dir string, opts vss.Options, tr *tracer) (*vss.System, error) {
	b, err := vss.NewLocalBackend(filepath.Join(dir, "data"))
	if err != nil {
		return nil, err
	}
	return vss.OpenWith(dir, opts, wrapBackend(b, tr, "storage"))
}

// latency reports the median and p95 of one op kind's latencies; too few
// samples for a p95 fails the run. The p95 is printed but not in the
// gated list: on serve-fleet it falls among raw reads, whose spread from
// run to run is wider than any bound the benchmark may set.
func (r *report) latency(lat []float64, kind string) error {
	p95, err := tail(lat, 0.95)
	if err != nil {
		return fmt.Errorf("%s latency: %w", kind, err)
	}
	r.endToEnd("op_p50_ms", kind+"_p50_ms", median(lat), len(lat))
	r.note(kind+"_p95_ms", "ms", p95, len(lat))
	return nil
}

// dropFrame removes one frame (or one GOP) from a result: the planted
// fault the frame-count check must catch.
func dropFrame(res *vss.ReadResult) {
	if len(res.Frames) > 0 {
		res.Frames = res.Frames[1:]
	} else if len(res.GOPs) > 0 {
		res.GOPs = res.GOPs[1:]
	}
}

// outputBytes is the size of a read's output as a view would store it.
func outputBytes(res *vss.ReadResult) int64 {
	var n int64
	for _, g := range res.GOPs {
		n += int64(len(g))
	}
	for _, f := range res.Frames {
		n += int64(len(f.Data))
	}
	return n
}

// checkRead verifies one read's output: the window's exact frame count
// at the requested size and codec, a clean decode of one GOP when
// decode is set, and for raw output a PSNR floor against the source.
func checkRead(rep *report, i int, op readOp, res *vss.ReadResult, src []*frame.Frame, decode bool) {
	rep.check(res.FrameCount() == op.frames, "read %d: %d frames, want %d", i, res.FrameCount(), op.frames)
	if op.spec.P.Codec == "" {
		var ref, got []*frame.Frame
		for j, f := range res.Frames {
			if f.Width != op.width || f.Height != op.height {
				rep.check(false, "read %d: frame %dx%d, want %dx%d", i, f.Width, f.Height, op.width, op.height)
				return
			}
			if op.first+j < len(src) {
				ref = append(ref, src[op.first+j].Resize(op.width, op.height).Convert(f.Format))
				got = append(got, f)
			}
		}
		if len(got) > 0 {
			psnr, err := quality.FramesPSNR(got, ref)
			rep.check(err == nil && psnr >= rawPSNRFloor, "read %d: PSNR %.1f dB below %d (%v)", i, psnr, rawPSNRFloor, err)
		}
		return
	}
	for _, g := range res.GOPs {
		h, err := codec.DecodeHeader(g)
		if err != nil || h.Codec != op.spec.P.Codec || h.Width != op.width || h.Height != op.height {
			rep.check(false, "read %d: GOP header %+v (%v), want %s %dx%d", i, h, err, op.spec.P.Codec, op.width, op.height)
			return
		}
	}
	if decode && len(res.GOPs) > 0 {
		g := res.GOPs[len(res.GOPs)/2]
		frames, h, err := codec.DecodeGOP(g)
		rep.check(err == nil && len(frames) == h.FrameCount, "read %d: sample GOP decode: %d frames, %v", i, len(frames), err)
	}
}
