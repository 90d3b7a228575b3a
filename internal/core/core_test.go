package core

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/quality"
	"repro/internal/storage"
)

// scene synthesizes n frames of moving traffic-like content at w x h.
func scene(n, w, h int, seed int64) []*frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	base := frame.New(w, h, frame.RGB)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base.SetRGB(x, y, byte(60+x*120/w), byte(80+y*100/h), byte((x*7+y*3)%160))
		}
	}
	// Static texture blocks make the scene feature-rich.
	for b := 0; b < 12; b++ {
		bx, by := rng.Intn(w-8), rng.Intn(h-8)
		c := byte(rng.Intn(200))
		for y := by; y < by+6; y++ {
			for x := bx; x < bx+6; x++ {
				base.SetRGB(x, y, c, 255-c, c/2)
			}
		}
	}
	out := make([]*frame.Frame, n)
	for i := 0; i < n; i++ {
		f := base.Clone()
		cx := (i*3 + 4) % (w - 10)
		for y := h / 2; y < h/2+6 && y < h; y++ {
			for x := cx; x < cx+8; x++ {
				f.SetRGB(x, y, 220, 30, 30)
			}
		}
		out[i] = f
	}
	return out
}

// newStore opens a store in a temp dir with small GOPs for fast tests.
func newStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.GOPFrames == 0 {
		opts.GOPFrames = 8
	}
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// writeVideo creates a video and writes a scene into it.
func writeVideo(t *testing.T, s *Store, name string, frames []*frame.Frame, fps int, cd codec.ID) {
	t.Helper()
	if err := s.Create(name, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(name, WriteSpec{FPS: fps, Codec: cd}, frames); err != nil {
		t.Fatal(err)
	}
}

func TestCreateDeleteSemantics(t *testing.T) {
	s := newStore(t, Options{})
	if err := s.Create("v", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("v", 0); err != ErrExists {
		t.Errorf("duplicate create: %v", err)
	}
	if err := s.Create("", 0); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.Create("../escape", 0); err == nil {
		t.Error("path traversal name accepted")
	}
	if err := s.Delete("v"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("v"); err != ErrNotFound {
		t.Errorf("double delete: %v", err)
	}
	if _, err := s.Read("v", ReadSpec{}); err != ErrNotFound {
		t.Errorf("read after delete: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := newStore(t, Options{})
	frames := scene(16, 64, 48, 1)
	writeVideo(t, s, "v", frames, 4, codec.H264)

	res, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 16 {
		t.Fatalf("read %d frames, want 16", len(res.Frames))
	}
	if res.Width != 64 || res.Height != 48 || res.FPS != 4 {
		t.Errorf("output %dx%d@%d", res.Width, res.Height, res.FPS)
	}
	// Quality must be near-lossless at the default encode quality.
	ref := make([]*frame.Frame, len(frames))
	for i, f := range frames {
		ref[i] = f.Convert(frame.YUV420).Convert(frame.RGB)
	}
	p, err := quality.FramesPSNR(ref, res.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if p < 30 {
		t.Errorf("round trip PSNR %.1f < 30", p)
	}
}

func TestReadTemporalSubrange(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(32, 64, 48, 2), 4, codec.H264)
	res, err := s.Read("v", ReadSpec{T: Temporal{Start: 2, End: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 12 { // 3 seconds at 4 fps
		t.Errorf("read %d frames, want 12", len(res.Frames))
	}
}

func TestReadOutsideIntervalErrors(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(8, 64, 48, 3), 4, codec.H264)
	if _, err := s.Read("v", ReadSpec{T: Temporal{Start: 1, End: 10}}); err == nil {
		t.Error("read past end should error (paper: reads outside m0 error)")
	}
	if _, err := s.Read("v", ReadSpec{T: Temporal{Start: -1, End: 1}}); err == nil {
		t.Error("negative start should error")
	}
	if _, err := s.Read("v", ReadSpec{T: Temporal{Start: 1.5, End: 1.5}}); err == nil {
		t.Error("empty interval should error")
	}
}

func TestReadResolutionChange(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(8, 64, 48, 4), 4, codec.H264)
	res, err := s.Read("v", ReadSpec{S: Spatial{Width: 32, Height: 24}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Width != 32 || res.Height != 24 {
		t.Errorf("output %dx%d", res.Width, res.Height)
	}
	if res.Frames[0].Width != 32 {
		t.Errorf("frame width %d", res.Frames[0].Width)
	}
}

func TestReadROI(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(8, 64, 48, 5), 4, codec.H264)
	roi := frame.Rect{X0: 16, Y0: 12, X1: 48, Y1: 36}
	res, err := s.Read("v", ReadSpec{S: Spatial{ROI: &roi}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Width != 32 || res.Height != 24 {
		t.Errorf("ROI output %dx%d, want 32x24", res.Width, res.Height)
	}
}

func TestReadTranscode(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(8, 64, 48, 6), 4, codec.H264)
	res, err := s.Read("v", ReadSpec{P: Physical{Codec: codec.HEVC}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GOPs) == 0 {
		t.Fatal("no encoded output")
	}
	hd, err := codec.DecodeHeader(res.GOPs[0])
	if err != nil {
		t.Fatal(err)
	}
	if hd.Codec != codec.HEVC {
		t.Errorf("output codec %s", hd.Codec)
	}
	if res.FrameCount() != 8 {
		t.Errorf("frame count %d", res.FrameCount())
	}
}

func TestReadFPSDownsample(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(16, 64, 48, 7), 8, codec.H264)
	res, err := s.Read("v", ReadSpec{T: Temporal{FPS: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 4 { // 2 seconds at 2 fps
		t.Errorf("read %d frames, want 4", len(res.Frames))
	}
	if _, err := s.Read("v", ReadSpec{T: Temporal{FPS: 100}}); err == nil {
		t.Error("fps above source should error")
	}
}

func TestRawFormatOutput(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(8, 64, 48, 8), 4, codec.H264)
	res, err := s.Read("v", ReadSpec{P: Physical{Format: frame.RGB}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames[0].Format != frame.RGB {
		t.Errorf("format %v", res.Frames[0].Format)
	}
	res, err = s.Read("v", ReadSpec{P: Physical{Format: frame.YUV422}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames[0].Format != frame.YUV422 {
		t.Errorf("format %v", res.Frames[0].Format)
	}
}

func TestCachePopulatedAndUsed(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(32, 64, 48, 9), 4, codec.H264)

	// First read converts; its result should be admitted.
	res1, err := s.Read("v", ReadSpec{T: Temporal{Start: 2, End: 6}, P: Physical{Codec: codec.HEVC}})
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Stats.Admitted {
		t.Fatal("conversion result not cached")
	}
	// Second identical read must be served from the cached view (pure
	// passthrough, much cheaper plan).
	res2, err := s.Read("v", ReadSpec{T: Temporal{Start: 2, End: 6}, P: Physical{Codec: codec.HEVC}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Admitted {
		t.Error("identical repeat read should not duplicate the cache")
	}
	if res2.Stats.PlanCost >= res1.Stats.PlanCost {
		t.Errorf("cached plan cost %.0f not below first read %.0f", res2.Stats.PlanCost, res1.Stats.PlanCost)
	}
	_, phys, _ := s.Info("v")
	if len(phys) != 2 {
		t.Errorf("expected original + 1 cached view, got %d", len(phys))
	}
}

func TestCacheMixedPlanAcrossViews(t *testing.T) {
	// Reproduces the paper's Figure 3 scenario: cached mid-range views in
	// the requested format should be stitched with the original.
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(40, 64, 48, 10), 4, codec.H264)
	// Cache [3, 6) as hevc.
	if _, err := s.Read("v", ReadSpec{T: Temporal{Start: 3, End: 6}, P: Physical{Codec: codec.HEVC}}); err != nil {
		t.Fatal(err)
	}
	// Read [2, 8) as hevc: plan should use the cached hevc view in the
	// middle (passthrough) and the original elsewhere.
	res, err := s.Read("v", ReadSpec{T: Temporal{Start: 2, End: 8}, P: Physical{Codec: codec.HEVC}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanRuns < 2 {
		t.Errorf("expected a multi-fragment plan, got %d runs", res.Stats.PlanRuns)
	}
	if res.FrameCount() != 24 {
		t.Errorf("frame count %d, want 24", res.FrameCount())
	}
}

func TestGreedyPlannerCostsNoLess(t *testing.T) {
	mk := func(greedy bool) float64 {
		s := newStore(t, Options{GreedyPlanner: greedy})
		writeVideo(t, s, "v", scene(40, 64, 48, 11), 4, codec.H264)
		for _, iv := range [][2]float64{{3, 6}, {7, 9}} {
			if _, err := s.Read("v", ReadSpec{T: Temporal{Start: iv[0], End: iv[1]}, P: Physical{Codec: codec.HEVC}}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Read("v", ReadSpec{T: Temporal{Start: 2, End: 10}, P: Physical{Codec: codec.HEVC}})
		if err != nil {
			t.Fatal(err)
		}
		// Re-plan the same spec to measure planned cost (the first full
		// read may itself have been admitted, changing state; use the
		// reported plan cost of the read we executed).
		return res.Stats.PlanCost
	}
	smtCost := mk(false)
	greedyCost := mk(true)
	if smtCost > greedyCost+1e-6 {
		t.Errorf("solver cost %.0f exceeds greedy cost %.0f", smtCost, greedyCost)
	}
}

func TestStreamingWriterPrefixRead(t *testing.T) {
	s := newStore(t, Options{})
	if err := s.Create("live", 0); err != nil {
		t.Fatal(err)
	}
	w, err := s.OpenWriter("live", WriteSpec{FPS: 4, Codec: codec.H264})
	if err != nil {
		t.Fatal(err)
	}
	frames := scene(24, 64, 48, 12)
	// Append 2.5 GOPs worth (GOPFrames=8): two GOPs land, partial buffers.
	if err := w.Append(frames[:20]...); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil { // flush the partial GOP
		t.Fatal(err)
	}
	res, err := s.Read("live", ReadSpec{T: Temporal{Start: 0, End: 5}})
	if err != nil {
		t.Fatalf("prefix read while streaming: %v", err)
	}
	if len(res.Frames) != 20 {
		t.Errorf("prefix read %d frames, want 20", len(res.Frames))
	}
	if err := w.Append(frames[20:]...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(frames[0]); err == nil {
		t.Error("append after close should error")
	}
	res, err = s.Read("live", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 24 {
		t.Errorf("full read %d frames, want 24", len(res.Frames))
	}
}

func TestNoOverwritePolicy(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(8, 64, 48, 13), 4, codec.H264)
	// Appending in the same configuration extends the video.
	if err := s.Write("v", WriteSpec{FPS: 4, Codec: codec.H264}, scene(8, 64, 48, 14)); err != nil {
		t.Fatal(err)
	}
	v, _, _ := s.Info("v")
	if v.Duration != 4 {
		t.Errorf("duration %f, want 4", v.Duration)
	}
	// A different configuration is rejected.
	if err := s.Write("v", WriteSpec{FPS: 8, Codec: codec.H264}, scene(8, 64, 48, 15)); err == nil {
		t.Error("fps change should be rejected")
	}
	if err := s.Write("v", WriteSpec{FPS: 4, Codec: codec.HEVC}, scene(8, 64, 48, 16)); err == nil {
		t.Error("codec change should be rejected")
	}
	if err := s.Write("v", WriteSpec{FPS: 4, Codec: codec.H264}, scene(4, 32, 32, 17)); err == nil {
		t.Error("resolution change should be rejected")
	}
}

func TestWriteEncodedIngest(t *testing.T) {
	s := newStore(t, Options{})
	if err := s.Create("v", 0); err != nil {
		t.Fatal(err)
	}
	frames := scene(16, 64, 48, 18)
	var gops [][]byte
	for i := 0; i < 16; i += 8 {
		data, _, err := codec.EncodeGOP(frames[i:i+8], codec.H264, 85)
		if err != nil {
			t.Fatal(err)
		}
		gops = append(gops, data)
	}
	if err := s.WriteEncoded("v", 4, gops); err != nil {
		t.Fatal(err)
	}
	res, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 16 {
		t.Errorf("read %d frames", len(res.Frames))
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{GOPFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	frames := scene(16, 64, 48, 19)
	if err := s.Create("v", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("v", WriteSpec{FPS: 4, Codec: codec.H264}, frames); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("v", ReadSpec{P: Physical{Codec: codec.HEVC}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{GOPFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, phys, err := s2.Info("v")
	if err != nil {
		t.Fatal(err)
	}
	if v.Duration != 4 || len(phys) < 2 {
		t.Errorf("reopened: duration %f, %d phys", v.Duration, len(phys))
	}
	res, err := s2.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 16 {
		t.Errorf("reopened read %d frames", len(res.Frames))
	}
}

func TestBudgetEvictionRespectsBaseline(t *testing.T) {
	s := newStore(t, Options{BudgetMultiple: 1.5})
	frames := scene(32, 64, 48, 20)
	writeVideo(t, s, "v", frames, 4, codec.H264)
	v, _, _ := s.Info("v")
	if v.Budget <= 0 {
		t.Fatal("budget not set from multiple")
	}
	// Generate many distinct cached views to blow the budget.
	for i := 0; i < 6; i++ {
		start := float64(i)
		if _, err := s.Read("v", ReadSpec{T: Temporal{Start: start, End: start + 2}, P: Physical{Codec: codec.HEVC, Quality: 60 + i}}); err != nil {
			t.Fatal(err)
		}
	}
	total, err := s.TotalBytes("v")
	if err != nil {
		t.Fatal(err)
	}
	if total > v.Budget {
		t.Errorf("stored %d exceeds budget %d after eviction", total, v.Budget)
	}
	// The full original must still be readable (baseline cover guarded).
	res, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 32 {
		t.Errorf("full read %d frames after eviction", len(res.Frames))
	}
}

func TestUnlimitedBudgetNeverEvicts(t *testing.T) {
	s := newStore(t, Options{BudgetMultiple: -1})
	writeVideo(t, s, "v", scene(16, 64, 48, 21), 4, codec.H264)
	for i := 0; i < 4; i++ {
		if _, err := s.Read("v", ReadSpec{T: Temporal{Start: float64(i), End: float64(i + 1)}, P: Physical{Codec: codec.HEVC}}); err != nil {
			t.Fatal(err)
		}
	}
	_, phys, _ := s.Info("v")
	if len(phys) < 5 {
		t.Errorf("expected all views retained, got %d", len(phys))
	}
}

func TestDeferredCompressionShrinksRawCache(t *testing.T) {
	s := newStore(t, Options{BudgetMultiple: 60, DeferredThreshold: 0.01, GOPFrames: 8})
	writeVideo(t, s, "v", scene(24, 64, 48, 22), 4, codec.H264)
	// Raw reads populate large uncompressed views and trigger deferred
	// compression pressure.
	for i := 0; i < 3; i++ {
		if _, err := s.Read("v", ReadSpec{T: Temporal{Start: float64(i * 2), End: float64(i*2 + 2)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := s.Maintain(); err != nil {
			t.Fatal(err)
		}
	}
	_, phys, _ := s.Info("v")
	compressed := 0
	for _, p := range phys {
		for _, g := range p.GOPs {
			if g.Lossless > 0 {
				compressed++
			}
		}
	}
	if compressed == 0 {
		t.Error("no GOPs were deferred-compressed")
	}
	// Compressed views must still decode correctly.
	res, err := s.Read("v", ReadSpec{T: Temporal{Start: 0, End: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 8 {
		t.Errorf("read %d frames from compressed cache", len(res.Frames))
	}
}

func TestDeferredDisabled(t *testing.T) {
	s := newStore(t, Options{BudgetMultiple: 60, DeferredThreshold: 0.01, DisableDeferred: true})
	writeVideo(t, s, "v", scene(8, 64, 48, 23), 4, codec.H264)
	if _, err := s.Read("v", ReadSpec{}); err != nil {
		t.Fatal(err)
	}
	s.Maintain()
	_, phys, _ := s.Info("v")
	for _, p := range phys {
		for _, g := range p.GOPs {
			if g.Lossless > 0 {
				t.Error("deferred compression ran while disabled")
			}
		}
	}
}

func TestCompaction(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(32, 64, 48, 24), 4, codec.H264)
	// Two contiguous cached views in the same configuration.
	if _, err := s.Read("v", ReadSpec{T: Temporal{Start: 0, End: 4}, P: Physical{Codec: codec.HEVC}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("v", ReadSpec{T: Temporal{Start: 4, End: 8}, P: Physical{Codec: codec.HEVC}}); err != nil {
		t.Fatal(err)
	}
	_, physBefore, _ := s.Info("v")
	merges, err := s.CompactVideo("v")
	if err != nil {
		t.Fatal(err)
	}
	if merges != 1 {
		t.Errorf("merges = %d, want 1", merges)
	}
	_, physAfter, _ := s.Info("v")
	if len(physAfter) != len(physBefore)-1 {
		t.Errorf("phys count %d -> %d", len(physBefore), len(physAfter))
	}
	// The merged view must serve the whole range in one fragment.
	res, err := s.Read("v", ReadSpec{T: Temporal{Start: 0, End: 8}, P: Physical{Codec: codec.HEVC}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanRuns != 1 {
		t.Errorf("post-compaction plan runs = %d, want 1", res.Stats.PlanRuns)
	}
	if res.FrameCount() != 32 {
		t.Errorf("frame count %d", res.FrameCount())
	}
}

// TestCompactionAfterFrontEviction pins GOP numbering when compaction
// merges into a view whose front pages were evicted: the linked GOPs
// must take sequence numbers past the survivors', not collide with a
// surviving GOP file.
func TestCompactionAfterFrontEviction(t *testing.T) {
	s := newStore(t, Options{BudgetMultiple: -1})
	writeVideo(t, s, "v", scene(32, 64, 48, 25), 4, codec.H264)
	hevc := Physical{Codec: codec.HEVC}
	for _, span := range [][2]float64{{0, 4}, {4, 8}} {
		if _, err := s.Read("v", ReadSpec{T: Temporal{Start: span[0], End: span[1]}, P: hevc}); err != nil {
			t.Fatal(err)
		}
	}
	// Evict the front page of the first view, as LRU_VSS would, and
	// record the surviving pages' bytes in time order.
	vs := s.acquire("v")
	var a, b *PhysMeta
	for _, p := range vs.phys {
		switch {
		case p.Orig:
		case p.Start < timeEps:
			a = p
		default:
			b = p
		}
	}
	if a == nil || b == nil || len(a.GOPs) != 2 {
		vs.mu.Unlock()
		t.Fatal("views [0,4) and [4,8) not cached as expected")
	}
	if err := s.removeGOPLocked(vs, a, &a.GOPs[0]); err != nil {
		vs.mu.Unlock()
		t.Fatal(err)
	}
	if err := s.savePhys("v", a); err != nil {
		vs.mu.Unlock()
		t.Fatal(err)
	}
	var want [][]byte
	for _, p := range []*PhysMeta{a, b} {
		for _, g := range p.GOPs {
			data, err := s.readGOP(context.Background(), "v", p.Dir, g.Seq, g.Bytes)
			if err != nil {
				vs.mu.Unlock()
				t.Fatal(err)
			}
			want = append(want, data)
		}
	}
	vs.mu.Unlock()

	if merges, err := s.CompactVideo("v"); err != nil || merges != 1 {
		t.Fatalf("CompactVideo = %d, %v; want 1 merge", merges, err)
	}
	check := func(label string) {
		t.Helper()
		res, err := s.Read("v", ReadSpec{T: Temporal{Start: 2, End: 8}, P: hevc})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Stats.PlanRuns != 1 || res.Stats.GOPsDecoded != 0 {
			t.Errorf("%s: plan runs %d, decoded %d; want one passthrough run",
				label, res.Stats.PlanRuns, res.Stats.GOPsDecoded)
		}
		if len(res.GOPs) != len(want) {
			t.Fatalf("%s: %d GOPs, want %d", label, len(res.GOPs), len(want))
		}
		for i := range want {
			if !bytes.Equal(res.GOPs[i], want[i]) {
				t.Errorf("%s: GOP %d differs from the page it was linked from", label, i)
			}
		}
	}
	check("after compaction")
	if err := s.Maintain(); err != nil {
		t.Fatalf("Maintain after compaction: %v", err)
	}
	check("after Maintain")
}

// TestMaintainIsolatesFailingVideo plants a video whose deferred
// compression fails on every pass — its raw cache pages are gone from
// the backend — and proves Maintain still compacts and backfills every
// other video and snapshots the catalog, returning the failure joined.
func TestMaintainIsolatesFailingVideo(t *testing.T) {
	s := newStore(t, Options{SnapshotCatalog: true})
	// "a-bad" sorts first, so each pass meets it before the healthy video.
	writeVideo(t, s, "a-bad", scene(16, 64, 48, 27), 4, codec.H264)
	vs := s.acquire("a-bad")
	vs.meta.Budget = 0 // unlimited while the raw view is cached whole
	vs.mu.Unlock()
	if _, err := s.Read("a-bad", ReadSpec{}); err != nil {
		t.Fatal(err)
	}
	vs = s.acquire("a-bad")
	for _, p := range vs.phys {
		for _, g := range p.GOPs {
			if !p.Orig {
				if err := s.files.DeleteGOP("a-bad", p.Dir, g.Seq); err != nil {
					vs.mu.Unlock()
					t.Fatal(err)
				}
			}
		}
	}
	vs.meta.Budget = vs.totalBytes() // over the deferred-compression threshold
	vs.mu.Unlock()

	writeVideo(t, s, "b-good", scene(32, 64, 48, 28), 4, codec.Raw)
	for _, span := range [][2]float64{{0, 4}, {4, 8}} {
		if _, err := s.Read("b-good", ReadSpec{T: Temporal{Start: span[0], End: span[1]}, P: Physical{Codec: codec.HEVC}}); err != nil {
			t.Fatal(err)
		}
	}

	for pass := 1; pass <= 2; pass++ {
		err := s.Maintain()
		if err == nil || !strings.Contains(err.Error(), "a-bad") {
			t.Fatalf("pass %d: Maintain = %v, want the failing video's error", pass, err)
		}
	}
	_, phys, err := s.Info("b-good")
	if err != nil {
		t.Fatal(err)
	}
	views := 0
	for _, p := range phys {
		if p.Orig {
			for _, g := range p.GOPs {
				if g.Summary == nil {
					t.Errorf("b-good GOP %d not backfilled", g.Seq)
				}
			}
		} else {
			views++
		}
	}
	if views != 1 {
		t.Errorf("b-good has %d cached views after Maintain, want 1 (compacted)", views)
	}
	if _, err := s.files.ReadGOP(storage.CatalogSnapshotVideo, storage.CatalogSnapshotDir, 0); err != nil {
		t.Errorf("catalog snapshot not written: %v", err)
	}
}

func TestQualityGateRejectsLowQualityViews(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(16, 64, 48, 25), 4, codec.H264)
	// Cache a heavily compressed (low-quality) view.
	if _, err := s.Read("v", ReadSpec{P: Physical{Codec: codec.HEVC, Quality: 5}}); err != nil {
		t.Fatal(err)
	}
	// A strict read must not use it (plan should be a single original
	// fragment).
	res, err := s.Read("v", ReadSpec{P: Physical{Codec: codec.H264, MinPSNR: 45}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1} {
		for _, used := range resFragments(res) {
			if used == id {
				t.Error("low-quality view used despite quality gate")
			}
		}
	}
	_ = res
}

// resFragments is a test helper: plans are not exported, so infer from
// stats (single-run plans from the original have PlanRuns == 1).
func resFragments(r *ReadResult) []int {
	if r.Stats.PlanRuns == 1 {
		return nil
	}
	return []int{1}
}

func TestLowResViewRejectedForHighResRead(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(16, 96, 64, 26), 4, codec.H264)
	// Cache a tiny thumbnail view.
	if _, err := s.Read("v", ReadSpec{S: Spatial{Width: 16, Height: 12}}); err != nil {
		t.Fatal(err)
	}
	// Full-resolution read must not upsample the thumbnail: result PSNR
	// against the original decode must stay near-lossless.
	full1, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	full2, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := quality.FramesPSNR(full1.Frames, full2.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if p < 40 {
		t.Errorf("full-res reads diverged (PSNR %.1f): thumbnail likely used", p)
	}
}

func TestInfoAndVideos(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "a", scene(8, 64, 48, 27), 4, codec.H264)
	writeVideo(t, s, "b", scene(8, 64, 48, 28), 4, codec.H264)
	if n := len(s.Videos()); n != 2 {
		t.Errorf("videos %d", n)
	}
	v, phys, err := s.Info("a")
	if err != nil || v.Name != "a" || len(phys) != 1 {
		t.Errorf("info: %v %s %d", err, v.Name, len(phys))
	}
	if !phys[0].Orig {
		t.Error("first phys should be the original")
	}
	if _, _, err := s.Info("zzz"); err != ErrNotFound {
		t.Errorf("missing info err %v", err)
	}
}
