package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/lossless"
	"repro/internal/quality"
)

func TestRedundancyCountsHigherQualityCovers(t *testing.T) {
	s := newStore(t, Options{BudgetMultiple: -1})
	writeVideo(t, s, "v", scene(16, 64, 48, 80), 4, codec.H264)
	// Two cached views over the same range: one near-lossless, one lossy.
	if _, err := s.Read("v", ReadSpec{P: Physical{Codec: codec.HEVC, Quality: 95}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("v", ReadSpec{P: Physical{Codec: codec.HEVC, Quality: 40, MinPSNR: 20}}); err != nil {
		t.Fatal(err)
	}
	vs := s.acquire("v")
	defer vs.mu.Unlock()
	var hiQ, loQ *PhysMeta
	for _, p := range vs.phys {
		switch p.Quality {
		case 95:
			hiQ = p
		case 40:
			loQ = p
		}
	}
	if hiQ == nil || loQ == nil {
		t.Fatal("views not cached")
	}
	// The lossy view has two better covers (original + q95); the q95 view
	// has one (original).
	if r := s.redundancyLocked(vs, loQ, &loQ.GOPs[0]); r < 2 {
		t.Errorf("lossy view redundancy %d, want >= 2", r)
	}
	rHi := s.redundancyLocked(vs, hiQ, &hiQ.GOPs[0])
	rLo := s.redundancyLocked(vs, loQ, &loQ.GOPs[0])
	if rHi >= rLo {
		t.Errorf("higher-quality view should have lower redundancy: %d vs %d", rHi, rLo)
	}
}

func TestBaselineGuardProtectsLastCover(t *testing.T) {
	s := newStore(t, Options{BudgetMultiple: -1})
	writeVideo(t, s, "v", scene(16, 64, 48, 81), 4, codec.H264)
	vs := s.acquire("v")
	defer vs.mu.Unlock()
	orig := vs.original()
	// The original is the only lossless cover: every page is protected.
	for i := range orig.GOPs {
		if !s.isLastQualityCoverLocked(vs, orig, &orig.GOPs[i]) {
			t.Errorf("original GOP %d not protected", i)
		}
	}
}

func TestMatchesOutputQualitySensitivity(t *testing.T) {
	p := &PhysMeta{Codec: codec.HEVC, Width: 64, Height: 48, FPS: 4, Quality: 80, ROI: FullNRect()}
	r := resolvedSpec{codec: codec.HEVC, roiW: 64, roiH: 48, outFPS: 4, roi: FullNRect(), quality: 80}
	if !matchesOutput(p, r) {
		t.Error("exact config should match")
	}
	r.quality = 60
	if matchesOutput(p, r) {
		t.Error("different quality must not match for compressed output")
	}
	// Raw output ignores the quality preset.
	p2 := &PhysMeta{Codec: codec.Raw, Width: 64, Height: 48, FPS: 4, Quality: 80, ROI: FullNRect()}
	r2 := resolvedSpec{codec: codec.Raw, roiW: 64, roiH: 48, outFPS: 4, roi: FullNRect(), quality: 10}
	if !matchesOutput(p2, r2) {
		t.Error("raw output should match regardless of quality preset")
	}
}

func TestDeferredCompressionRoundTripsThroughReads(t *testing.T) {
	s := newStore(t, Options{BudgetMultiple: 40, DeferredThreshold: 0.01, GOPFrames: 8})
	writeVideo(t, s, "v", scene(16, 64, 48, 82), 4, codec.H264)
	// Cache raw views, force compression, read back, verify content.
	before, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Maintain(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := quality.FramesPSNR(before.Frames, after.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if p < quality.Lossless {
		t.Errorf("deferred compression must be lossless: PSNR %.1f", p)
	}
}

func TestDeferredLevelScalesWithPressure(t *testing.T) {
	// LevelForBudget drives the controller; verify the mapping contract
	// against the store's reported level.
	s := newStore(t, Options{GOPFrames: 8, DeferredThreshold: 0.1})
	writeVideo(t, s, "v", scene(16, 64, 48, 83), 4, codec.Raw)
	lvl := s.DeferredLevel("v")
	vs := s.acquire("v")
	used := vs.totalBytes()
	budget := vs.meta.Budget
	vs.mu.Unlock()
	if budget <= 0 {
		t.Fatal("budget unset")
	}
	want := 0
	if float64(used) >= 0.1*float64(budget) {
		want = lossless.LevelForBudget(1 - float64(used)/float64(budget))
	}
	if lvl != want {
		t.Errorf("DeferredLevel = %d, want %d (used %d of %d)", lvl, want, used, budget)
	}
	if s.DeferredLevel("missing") != 0 {
		t.Error("missing video should report level 0")
	}
}

func TestIncompressibleGOPMarkedNotRetried(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 4, BudgetMultiple: 2, DeferredThreshold: 0.01})
	// Random frames are incompressible; deferred compression should mark
	// them and move on rather than rewriting files.
	frames := scene(8, 64, 48, 84)
	for _, f := range frames {
		for i := range f.Data {
			f.Data[i] = byte((i*2654435761 + 12345) >> 7) // pseudo-noise
		}
	}
	writeVideo(t, s, "v", frames, 4, codec.Raw)
	for i := 0; i < 6; i++ {
		if err := s.Maintain(); err != nil {
			t.Fatal(err)
		}
	}
	_, phys, _ := s.Info("v")
	marked := 0
	for _, p := range phys {
		for _, g := range p.GOPs {
			if g.Lossless == -1 {
				marked++
			}
		}
	}
	if marked == 0 {
		t.Skip("noise compressed after all (flate found structure)")
	}
	// A marked GOP must still read back correctly.
	if _, err := s.Read("v", ReadSpec{T: Temporal{Start: 0, End: 1}}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionRejectsJointAndOriginal(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8})
	writeVideo(t, s, "v", scene(16, 64, 48, 85), 4, codec.H264)
	// Only the original exists: nothing to compact (originals excluded).
	n, err := s.CompactVideo("v")
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("compacted %d pairs with only the original present", n)
	}
	if _, err := s.CompactVideo("missing"); err != ErrNotFound {
		t.Errorf("missing video: %v", err)
	}
}

// TestLegacyFlateBlockGOPStillReads pins backward compatibility with
// stores written before the ls codec: the deferred tier used to wrap
// raw GOP containers in VSL1 flate blocks, and those bytes are still on
// disk in old stores. Rewrite a cached raw GOP the old way — flate
// block, Lossless level set in the catalog — and the read path must
// inflate it transparently and return the same frames.
func TestLegacyFlateBlockGOPStillReads(t *testing.T) {
	s := newStore(t, Options{BudgetMultiple: 60, DeferredThreshold: 0.01, GOPFrames: 8, DisableDeferred: true})
	writeVideo(t, s, "v", scene(16, 64, 48, 91), 4, codec.H264)
	before, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite one cached raw GOP exactly as the pre-registry deferred
	// tier did: lossless.Compress over the container bytes.
	vs := s.acquire("v")
	if vs == nil {
		t.Fatal("video vanished")
	}
	rewrote := false
	for _, p := range vs.phys {
		if p.Codec != codec.Raw || len(p.GOPs) == 0 || rewrote {
			continue
		}
		g := &p.GOPs[0]
		data, err := s.files.ReadGOP("v", p.Dir, g.Seq)
		if err != nil {
			vs.mu.Unlock()
			t.Fatal(err)
		}
		block, err := lossless.Compress(data, 7)
		if err != nil {
			vs.mu.Unlock()
			t.Fatal(err)
		}
		if err := s.files.WriteGOP("v", p.Dir, g.Seq, block); err != nil {
			vs.mu.Unlock()
			t.Fatal(err)
		}
		g.Lossless = 7
		g.Bytes = int64(len(block))
		if err := s.savePhys("v", p); err != nil {
			vs.mu.Unlock()
			t.Fatal(err)
		}
		rewrote = true
	}
	vs.mu.Unlock()
	if !rewrote {
		t.Fatal("no cached raw view to rewrite; read did not populate the cache")
	}

	after, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Frames) != len(before.Frames) {
		t.Fatalf("read %d frames, want %d", len(after.Frames), len(before.Frames))
	}
	for i := range before.Frames {
		if !bytes.Equal(before.Frames[i].Data, after.Frames[i].Data) {
			t.Fatalf("frame %d changed through the legacy flate block", i)
		}
	}
}

// TestVictimChoiceDeterministic pins eviction and deferred-compression
// victims to the store's state rather than map iteration order: pages
// whose LRU_VSS scores tie are ordered by phys ID, then seq, so two
// identical stores under the same reads and budget evict and compress
// the same pages.
func TestVictimChoiceDeterministic(t *testing.T) {
	state := func(budget int64) string {
		s := newStore(t, Options{OrdinaryLRU: true})
		writeVideo(t, s, "v", scene(32, 64, 48, 26), 4, codec.H264)
		orig, err := s.TotalBytes("v")
		if err != nil {
			t.Fatal(err)
		}
		vs := s.acquire("v")
		vs.meta.Budget = budget * orig
		vs.mu.Unlock()
		for _, p := range []Physical{{}, {Codec: codec.HEVC}} {
			for _, span := range [][2]float64{{0, 4}, {4, 8}, {0, 8}, {2, 6}} {
				if _, err := s.Read("v", ReadSpec{T: Temporal{Start: span[0], End: span[1]}, P: p}); err != nil {
					t.Fatal(err)
				}
			}
		}
		vs = s.acquire("v")
		defer vs.mu.Unlock()
		var ids []int
		for id := range vs.phys {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var b strings.Builder
		for _, id := range ids {
			p := vs.phys[id]
			fmt.Fprintf(&b, "phys %d %s:", id, p.Codec)
			for _, g := range p.GOPs {
				fmt.Fprintf(&b, " %d/%d", g.Seq, g.Lossless)
			}
			b.WriteString("\n")
		}
		return b.String()
	}
	// At 3x the original's size the reads force evictions among tied
	// pages; at 8x they force deferred compression among tied pages too.
	for _, budget := range []int64{3, 8} {
		want := state(budget)
		for i := 0; i < 4; i++ {
			if got := state(budget); got != want {
				t.Fatalf("budget %dx, store %d: state\n%s\nwant\n%s", budget, i+2, got, want)
			}
		}
	}
}
