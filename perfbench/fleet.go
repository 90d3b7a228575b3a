package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/visualroad"
	"repro/vss"
)

// serveFleetSize shapes the serve-fleet workload.
type serveFleetSize struct {
	width, height, fps, videoSeconds int
	nodes, replicas                  int
	setups                           int
	senders                          int
	nominalRPS                       float64
	nominalRequests                  int
	warmupRequests                   int
	warmupRPS                        float64
	ladder                           []float64 // rates tried for max_ok_rps, ascending
	rungRequests                     int
	limitMs                          float64 // ttfb p95 limit behind max_ok_rps
	blocks, blockRequests            int     // closed-loop capacity phase: blocks of requests, each timed
}

func serveFleetDefault(seconds int) serveFleetSize {
	return serveFleetSize{
		width: 240, height: 136, fps: 8, videoSeconds: 24,
		nodes: 3, replicas: 2, setups: 3, senders: 2,
		nominalRPS: 25, nominalRequests: 30 * seconds, warmupRequests: 200, warmupRPS: 200,
		ladder: []float64{50, 100, 150, 200, 300}, rungRequests: 200, limitMs: 100,
		blocks: max(seconds/2, 1), blockRequests: 200,
	}
}

func runServeFleet(ctx context.Context, e env) (*report, error) {
	return serveFleet(ctx, e, serveFleetDefault(e.seconds))
}

// fleet is the vssrouterd arrangement in one process: storage nodes
// (each a vssd over its own store) on loopback, a router over them, and
// a front vssd serving a store on the router.
type fleet struct {
	front    *vss.System
	frontDir string
	client   *server.Client
	closers  []func()
}

func (f *fleet) Close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}

// serve runs h on a loopback listener until the fleet closes.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	f.closers = append(f.closers, func() {
		srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// keepAlive is an HTTP client that keeps up to n idle connections to a
// host, so steady traffic never pays a handshake.
func keepAlive(n int) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns, t.MaxIdleConnsPerHost = 4*n, 4*n
	return &http.Client{Transport: t}
}

// startFleet boots the storage nodes, the router and the front store.
// The front vssd is started separately, once its cache is sized.
func startFleet(dir string, sz serveFleetSize, tr *tracer) (*fleet, error) {
	f := &fleet{}
	nodes := make([]storage.Backend, sz.nodes)
	labels := make([]string, sz.nodes)
	nodeHTTP := keepAlive(sz.senders)
	for i := range nodes {
		ndir := filepath.Join(dir, fmt.Sprintf("node%d", i))
		sys, err := openLocal(ndir, vss.Options{GOPFrames: sz.fps}, nil)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.closers = append(f.closers, func() { sys.Close() })
		addr, err := f.serve(server.New(sys, server.Config{}))
		if err != nil {
			f.Close()
			return nil, err
		}
		remote := storage.NewRemote(&server.Client{Base: addr, HTTP: nodeHTTP, Name: "router"}, storage.RemoteOptions{})
		nodes[i], labels[i] = wrapBackend(remote, tr, "node"), addr
	}
	cluster, err := router.New(nodes, labels, sz.replicas)
	if err != nil {
		f.Close()
		return nil, err
	}
	f.frontDir = filepath.Join(dir, "front")
	front, err := vss.OpenWith(f.frontDir, vss.Options{GOPFrames: sz.fps}, wrapBackend(cluster, tr, "router"))
	if err != nil {
		f.Close()
		return nil, err
	}
	f.front = front
	f.closers = append(f.closers, func() { front.Close() })
	return f, nil
}

// startFront serves the front store through vssd with the given
// response-cache size.
func (f *fleet) startFront(cacheBytes int64, senders int) error {
	addr, err := f.serve(server.New(f.front, server.Config{CacheBytes: cacheBytes}))
	if err != nil {
		return err
	}
	f.client = &server.Client{Base: addr, HTTP: keepAlive(senders), Name: "perfbench"}
	return nil
}

// item is one distinct read a client may ask for.
type item struct {
	video         string
	t0, t1        int
	codec         string // "h264" (stored codec: passthrough), "hevc" (transcode) or "raw"
	width, height int
	frames        int // in the window
}

func (it item) query() string {
	q := url.Values{}
	q.Set("start", strconv.Itoa(it.t0))
	q.Set("end", strconv.Itoa(it.t1))
	q.Set("codec", it.codec)
	q.Set("width", strconv.Itoa(it.width))
	q.Set("height", strconv.Itoa(it.height))
	switch it.codec {
	case "h264":
		q.Set("quality", "85")
	case "raw":
		q.Set("format", "yuv420")
	}
	return q.Encode()
}

func (it item) spec() vss.ReadSpec {
	s := vss.ReadSpec{T: vss.Temporal{Start: float64(it.t0), End: float64(it.t1)}, S: vss.Spatial{Width: it.width, Height: it.height}}
	switch it.codec {
	case "h264":
		s.P = vss.Physical{Codec: vss.H264, Quality: 85}
	case "hevc":
		s.P = vss.Physical{Codec: vss.HEVC}
	default:
		s.P = vss.Physical{Format: vss.YUV420}
	}
	return s
}

// fleetFormats are the three kinds of read a client may ask of a window:
// passthrough of the stored codec, transcode, and raw at quarter
// resolution. No traffic study gives their mix, so each is drawn with the
// same probability.
var fleetFormats = []string{"h264", "hevc", "raw"}

// fleetItems lists every (video, window, format) a client may request:
// the windows in popularity order, each with its formats at
// rank*len(fleetFormats)+f. The window order is shuffled with rng.
func fleetItems(rng *rand.Rand, sz serveFleetSize, videos []string) []item {
	type window struct {
		video  string
		t0, t1 int
	}
	var windows []window
	for _, v := range videos {
		for t0 := 0; t0+2 <= sz.videoSeconds; t0++ {
			windows = append(windows, window{v, t0, t0 + 2})
		}
	}
	rng.Shuffle(len(windows), func(i, j int) { windows[i], windows[j] = windows[j], windows[i] })
	var items []item
	for _, w := range windows {
		for _, c := range fleetFormats {
			it := item{w.video, w.t0, w.t1, c, sz.width, sz.height, (w.t1 - w.t0) * sz.fps}
			if c == "raw" {
				it.width, it.height = sz.width/4, sz.height/4
			}
			items = append(items, it)
		}
	}
	return items
}

// bodyCheck remembers each item's body checksum so repeated requests can
// be compared byte for byte, cache hit or not.
type bodyCheck struct {
	mu  sync.Mutex
	sum map[int]uint64
}

// fetch runs one streaming read of it and checks the response. It
// returns when the first chunk arrived and the rest was drained.
func fetch(ctx context.Context, tr *tracer, c *server.Client, idx int, it item, bc *bodyCheck) (first time.Time, frames int, err error) {
	ctx, end := tr.begin(ctx, "call.request")
	defer end()
	ctx, cancel := context.WithTimeout(tr.withTraceID(ctx), opTimeout)
	defer cancel()
	hdr, next, stop, err := c.StreamingRead(ctx, it.video, it.query())
	if err != nil {
		return first, 0, err
	}
	defer stop()
	if hdr.Codec != it.codec || hdr.Width != it.width || hdr.Height != it.height {
		return first, 0, fmt.Errorf("header %s %dx%d, want %s %dx%d", hdr.Codec, hdr.Width, hdr.Height, it.codec, it.width, it.height)
	}
	h := fnv.New64a()
	for {
		chunk, err := next()
		if first.IsZero() {
			first = time.Now()
		}
		if errors.Is(err, io.EOF) { // the zero-length terminator arrived
			break
		}
		if err != nil {
			return first, 0, err
		}
		h.Write(chunk)
		if it.codec == "raw" {
			frames += len(chunk) / hdr.FrameBytes
		} else if gh, err := codec.DecodeHeader(chunk); err == nil {
			frames += gh.FrameCount
		} else {
			return first, 0, fmt.Errorf("chunk is not a GOP: %v", err)
		}
	}
	if frames != it.frames {
		return first, frames, fmt.Errorf("%d frames, want %d", frames, it.frames)
	}
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if prev, ok := bc.sum[idx]; ok && prev != h.Sum64() {
		return first, frames, fmt.Errorf("body differs from an earlier response to the same request")
	}
	bc.sum[idx] = h.Sum64()
	return first, frames, nil
}

// rungResult summarizes one open-loop phase.
type rungResult struct {
	ttfb, late  []float64
	raw, coded  []float64 // ttfb split by format: raw, or compressed (cacheable)
	failed      int
	backlogGrew bool
}

func (r rungResult) p95() float64 {
	v, err := tail(r.ttfb, 0.95)
	if err != nil {
		return 0
	}
	return v
}

// runRate sends the drawn requests open-loop at rate and checks each.
func runRate(ctx context.Context, e env, sz serveFleetSize, f *fleet, items []item, draws []int, rate float64, bc *bodyCheck, rep *report) rungResult {
	var res rungResult
	samples := openLoop(ctx, rate, len(draws), sz.senders, func(ctx context.Context, i int, due time.Time) (time.Time, error) {
		opCtx, endOp := e.tr.beginOpAt(ctx, "op.request", due)
		defer endOp()
		first, _, err := fetch(opCtx, e.tr, f.client, draws[i], items[draws[i]], bc)
		return first, err
	})
	for i, s := range samples {
		rep.attempted++
		res.late = append(res.late, ms(s.late))
		if s.err != nil {
			res.failed++
			rep.check(false, "request %d (%s): %v", i, items[draws[i]].query(), s.err)
			continue
		}
		res.ttfb = append(res.ttfb, ms(s.latency))
		if items[draws[i]].codec == "raw" {
			res.raw = append(res.raw, ms(s.latency))
		} else {
			res.coded = append(res.coded, ms(s.latency))
		}
	}
	// A growing backlog shows as the generator running later and later:
	// compare lateness over the last fifth of the phase with the first.
	k := len(res.late) / 5
	if k > 0 {
		res.backlogGrew = median(res.late[len(res.late)-k:]) > median(res.late[:k])+sz.limitMs/2
	}
	return res
}

func serveFleet(ctx context.Context, e env, sz serveFleetSize) (*report, error) {
	rep := newReport()
	videos := []string{"cam0", "cam1", "cam2", "cam3"}
	src := map[string][]*vss.Frame{}
	for i, v := range videos {
		src[v] = record(visualroad.Config{Width: sz.width, Height: sz.height, FPS: sz.fps, Seed: sceneSeed + int64(i)},
			recordStart(sceneSeed, int64(i)), sz.videoSeconds*sz.fps)
	}
	var f *fleet
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if f != nil {
			f.Close()
		}
		start := time.Now()
		var err error
		if f, err = startFleet(filepath.Join(e.dir, fmt.Sprintf("setup%d", i)), sz, e.tr); err != nil {
			return nil, err
		}
		for _, v := range videos {
			if err := f.front.Create(v, -1); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.front.Write(v, vss.WriteSpec{FPS: sz.fps, Codec: vss.H264, Quality: 85}, src[v]); err != nil {
				f.Close()
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer f.Close()
	rep.endToEnd("setup_s", "setup_s", median(setups), len(setups))
	writtenBytes := gopBytes(f.front, videos...)

	// The videos and the ranking of windows are fixed; the seed orders the
	// request stream. A served response's cost follows its content, so
	// per-seed videos would move every timing by more than the bounds.
	// Each phase asks for its Zipf quota of every item, so a raw read
	// (some 30 times a cache hit's latency) is always a third of the stream.
	items := fleetItems(rand.New(rand.NewSource(sceneSeed)), sz, videos)
	rng := rand.New(rand.NewSource(e.seed))
	weights := make([]float64, len(items))
	for rank, w := range zipfWeights(len(items)/len(fleetFormats), zipfAlpha) {
		for f := range fleetFormats {
			weights[rank*len(fleetFormats)+f] = w / float64(len(fleetFormats))
		}
	}
	draw := func(n int) []int { return deck(rng, quota(weights, n)) }
	warm := make([]int, len(items))
	for i := range warm {
		warm[i] = i
	}
	warm = append(warm, draw(sz.warmupRequests)...)
	nominalDraws := draw(sz.nominalRequests)

	// The response cache holds every compressed response (raw responses
	// are never cached), measured by reading each once, plus the largest
	// one as slack. The hot set is the compressed responses the timed
	// phase asks for; the run fails unless it fits.
	size := make([]int64, len(items))
	var allBytes, largest int64
	for i, it := range items {
		if it.codec == "raw" {
			continue
		}
		res, err := f.front.ReadContext(ctx, it.video, it.spec())
		if err != nil {
			return nil, fmt.Errorf("sizing the response cache: %w", err)
		}
		size[i] = outputBytes(res)
		allBytes += size[i]
		largest = max(largest, size[i])
	}
	cacheBytes := allBytes + largest
	var hotBytes int64
	hot := map[int]bool{}
	for _, i := range nominalDraws {
		if items[i].codec != "raw" && !hot[i] {
			hot[i] = true
			hotBytes += size[i]
		}
	}
	if hotBytes > cacheBytes {
		return nil, fmt.Errorf("hot set of %d B does not fit the %d B response cache", hotBytes, cacheBytes)
	}
	if err := f.startFront(cacheBytes, sz.senders); err != nil {
		return nil, err
	}
	bc := &bodyCheck{sum: map[int]uint64{}}
	runRate(ctx, env{seed: e.seed}, sz, f, items, warm, sz.warmupRPS, bc, rep)

	srvBefore, err := readCounters(ctx, f.front, f.client, filepath.Join(f.frontDir, "catalog"))
	if err != nil {
		return nil, err
	}
	heap := startHeapPeak()
	nominal := runRate(ctx, e, sz, f, items, nominalDraws, sz.nominalRPS, bc, rep)
	heapMB := heap.Stop()
	srvAfter, err := readCounters(ctx, f.front, f.client, filepath.Join(f.frontDir, "catalog"))
	if err != nil {
		return nil, err
	}
	if err := rep.latency(nominal.ttfb, "ttfb"); err != nil {
		return nil, err
	}
	// Open-loop latency means service time only while the fleet keeps up
	// with the nominal rate; past that it measures a queue that grows for
	// as long as the phase lasts.
	if nominal.backlogGrew {
		return nil, fmt.Errorf("the fleet fell behind the nominal %g req/s: the generator ran later and later", sz.nominalRPS)
	}

	maxOK := 0.0
	if nominal.failed == 0 && nominal.p95() <= sz.limitMs && !nominal.backlogGrew {
		maxOK = sz.nominalRPS
		for _, rate := range sz.ladder {
			r := runRate(ctx, e, sz, f, items, draw(sz.rungRequests), rate, bc, rep)
			if r.failed > 0 || r.p95() > sz.limitMs || r.backlogGrew {
				break
			}
			maxOK = rate
		}
	}

	// Capacity: closed-loop requests from every sender, back to back, in
	// blocks of the same mix; the median block's rate resists a passing
	// load spike.
	var rates []float64
	for k := 0; k < sz.blocks; k++ {
		start := time.Now()
		frames := saturate(ctx, sz, f, items, draw(sz.blockRequests), bc, rep)
		rates = append(rates, float64(frames)/time.Since(start).Seconds())
	}
	rep.endToEnd("frames_per_s", "served_fps (median block)", median(rates), len(rates))

	var nodeBytes int64
	for i := 0; i < sz.nodes; i++ {
		nodeBytes += dirBytes(filepath.Join(e.dir, fmt.Sprintf("setup%d", sz.setups-1), fmt.Sprintf("node%d", i), "data"))
	}
	rep.endToEnd("storage_ratio", "node bytes / written bytes", float64(nodeBytes)/float64(writtenBytes), 0)
	rep.note("stored_bytes_per_frame", "B", float64(nodeBytes)/float64(len(videos)*sz.videoSeconds*sz.fps), 0)

	rep.note("ttfb_p50_ms_compressed", "ms", median(nominal.coded), len(nominal.coded))
	rep.note("ttfb_p50_ms_raw", "ms", median(nominal.raw), len(nominal.raw))
	rep.note("heap_peak_mb", "MB", heapMB, 0)
	rep.note("max_ok_rps", "1/s", maxOK, len(sz.ladder)+1)
	rep.note("latency_limit_ms", "ms", sz.limitMs, 0)
	rep.note("error_frac", "frac", ratio(float64(rep.failed), float64(rep.attempted)), rep.attempted)
	rep.note("response_cache_bytes", "B", float64(cacheBytes), 0)
	rep.note("hot_set_bytes", "B", float64(hotBytes), len(hot))

	ph := timed(srvBefore, srvAfter, len(nominal.ttfb))
	rep.counterLayers(ph)
	rep.spanLayers(e.tr, ph, "op.request")
	a, b := srvBefore.srv, srvAfter.srv
	reqs := float64(len(nominal.ttfb))
	hits, misses := b.Cache.Hits-a.Cache.Hits, b.Cache.Misses-a.Cache.Misses
	rep.layer("server.respcache_hit_frac", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	_, flushMs := ph.stage("flush")
	rep.layer("server.flush_ms_per_read", ratio(flushMs, reqs), len(nominal.ttfb))
	rep.layer("server.flushes_per_read", ratio(float64(b.Response.Flushes-a.Response.Flushes), reqs), len(nominal.ttfb))
	_, admMs := ph.stage("admission_wait")
	rep.layer("server.admission_wait_ms_per_read", ratio(admMs, reqs), len(nominal.ttfb))
	rep.layer("server.rejected_frac", ratio(float64(b.Admission.Rejected-a.Admission.Rejected), reqs), len(nominal.ttfb))
	rep.layer("core.gops_decoded_per_read", ratio(float64(b.Reads.GOPsDecoded-a.Reads.GOPsDecoded), reqs), len(nominal.ttfb))
	rep.layer("core.views_end", float64(viewsEnd(f.front, videos...)), 0)
	late, _ := tail(nominal.late, 0.95)
	rep.layer("gen.late_ms_p95", late, len(nominal.late))
	return rep, nil
}

// saturate sends the draws back to back from every sender (a closed
// loop) and returns the frames served.
func saturate(ctx context.Context, sz serveFleetSize, f *fleet, items []item, draws []int, bc *bodyCheck, rep *report) (frames int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := 0; k < sz.senders; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(draws); i += sz.senders {
				_, n, err := fetch(ctx, nil, f.client, draws[i], items[draws[i]], bc)
				mu.Lock()
				rep.attempted++
				frames += n
				rep.check(err == nil, "request (%s): %v", items[draws[i]].query(), err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return frames
}
