package core

import (
	"context"
	"io"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/quality"
	"repro/internal/visualroad"
)

// writePair generates an overlapping camera pair and writes both streams.
func writePair(t *testing.T, s *Store, cfg visualroad.Config, n int) {
	t.Helper()
	left, right := visualroad.GeneratePair(cfg, n)
	for name, frames := range map[string][]*frame.Frame{"cam-left": left, "cam-right": right} {
		if err := s.Create(name, -1); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(name, WriteSpec{FPS: cfg.FPS, Codec: codec.H264, Quality: 90}, frames); err != nil {
			t.Fatal(err)
		}
	}
}

func pairCfg(overlap, perspective float64, seed int64) visualroad.Config {
	return visualroad.Config{Width: 128, Height: 96, FPS: 8, Seed: seed, Overlap: overlap, Perspective: perspective}
}

func TestJointCompressPairReducesStorage(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8})
	writePair(t, s, pairCfg(0.5, 0, 21), 8)

	before, _ := s.TotalBytes("cam-left")
	beforeR, _ := s.TotalBytes("cam-right")
	res, err := s.JointCompressPair(
		GOPRef{"cam-left", 0, 0}, GOPRef{"cam-right", 0, 0}, MergeUnprojected)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compressed {
		t.Fatal("pair not compressed")
	}
	if res.Duplicate {
		t.Fatal("50% overlap pair misdetected as duplicate")
	}
	if res.BytesAfter >= res.BytesBefore {
		t.Errorf("joint %d bytes >= separate %d", res.BytesAfter, res.BytesBefore)
	}
	after, _ := s.TotalBytes("cam-left")
	afterR, _ := s.TotalBytes("cam-right")
	if after+afterR >= before+beforeR {
		t.Errorf("total storage did not shrink: %d -> %d", before+beforeR, after+afterR)
	}
}

// TestPredicateReadAfterPartialJoint pins predicate reads of a right-role
// joint GOP. Planning it chases the partner video outside the lock set,
// so the first planning attempt is abandoned and retried with both
// videos locked; nothing from the abandoned attempt may leak into the
// retry. Units it kept would wait on fetches no prefetch stage ever
// starts (a hang) or, eagerly snapshotted, scan their GOP twice.
func TestPredicateReadAfterPartialJoint(t *testing.T) {
	const n = 16
	pred, err := ParsePredicate("motion >= 0")
	if err != nil {
		t.Fatal(err)
	}
	// withTimeout fails the test instead of hanging it.
	withTimeout := func(t *testing.T, label string, fn func() ([]Match, error)) []Match {
		t.Helper()
		type result struct {
			m   []Match
			err error
		}
		ch := make(chan result, 1)
		go func() {
			m, err := fn()
			ch <- result{m, err}
		}()
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("%s: %v", label, r.err)
			}
			return r.m
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: no result after 20s", label)
			return nil
		}
	}
	for _, disablePrefetch := range []bool{false, true} {
		s := newStore(t, Options{GOPFrames: 8, DisablePrefetch: disablePrefetch})
		writePair(t, s, pairCfg(0.5, 0, 23), n)
		res, err := s.JointCompressPair(GOPRef{"cam-left", 0, 1}, GOPRef{"cam-right", 0, 1}, MergeUnprojected)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Compressed || res.Duplicate {
			t.Fatalf("seq 1 pair not jointly compressed: %+v", res)
		}
		batch := withTimeout(t, "ReadWhere", func() ([]Match, error) {
			out, err := s.ReadWhere("cam-right", pred, 0, 0)
			if err != nil {
				return nil, err
			}
			return out.Matches, nil
		})
		streamed := withTimeout(t, "ReadStreamWhere", func() ([]Match, error) {
			st, err := s.ReadStreamWhere(context.Background(), "cam-right", pred, 0, 0)
			if err != nil {
				return nil, err
			}
			defer st.Close()
			var all []Match
			for {
				b, err := st.Next()
				if err == io.EOF {
					return all, nil
				}
				if err != nil {
					return nil, err
				}
				all = append(all, b.Matches...)
			}
		})
		for label, got := range map[string][]Match{"ReadWhere": batch, "ReadStreamWhere": streamed} {
			if len(got) != n {
				t.Fatalf("prefetch off=%v: %s returned %d matches, want %d", disablePrefetch, label, len(got), n)
			}
			for i, m := range got {
				if m.Index != i {
					t.Fatalf("prefetch off=%v: %s match %d has index %d", disablePrefetch, label, i, m.Index)
				}
			}
		}
		matchesEqual(t, "stream vs batch", streamed, batch)
	}
}

func TestJointRecoveredQuality(t *testing.T) {
	for _, merge := range []MergeMode{MergeUnprojected, MergeMean} {
		s := newStore(t, Options{GOPFrames: 8})
		cfg := pairCfg(0.5, 0.4, 22)
		left, right := visualroad.GeneratePair(cfg, 8)
		for name, frames := range map[string][]*frame.Frame{"cam-left": left, "cam-right": right} {
			if err := s.Create(name, -1); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(name, WriteSpec{FPS: cfg.FPS, Codec: codec.H264, Quality: 90}, frames); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.JointCompressPair(GOPRef{"cam-left", 0, 0}, GOPRef{"cam-right", 0, 0}, merge)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Compressed {
			t.Fatalf("%s: not compressed", merge)
		}
		// Table 2's finding: both recoveries at least near the joint
		// minimum; unprojected left is essentially lossless.
		if res.LeftPSNR < 30 || res.RightPSNR < 24 {
			t.Errorf("%s: recovered PSNR L=%.1f R=%.1f", merge, res.LeftPSNR, res.RightPSNR)
		}
		if merge == MergeUnprojected && res.LeftPSNR < 40 {
			t.Errorf("unprojected left PSNR %.1f, want lossless grade", res.LeftPSNR)
		}

		// Reads through the joint representation must still work, for
		// both roles.
		for _, name := range []string{"cam-left", "cam-right"} {
			out, err := s.Read(name, ReadSpec{T: Temporal{Start: 0, End: 1}})
			if err != nil {
				t.Fatalf("%s read: %v", name, err)
			}
			if len(out.Frames) != 8 {
				t.Fatalf("%s read %d frames", name, len(out.Frames))
			}
		}
		// Recovered right content matches the source to joint tolerance.
		out, _ := s.Read("cam-right", ReadSpec{T: Temporal{Start: 0, End: 1}})
		ref := make([]*frame.Frame, len(right))
		for i, f := range right {
			ref[i] = f.Convert(frame.YUV420).Convert(frame.RGB)
		}
		p, err := quality.FramesPSNR(ref[:len(out.Frames)], out.Frames)
		if err != nil {
			t.Fatal(err)
		}
		if p < 22 {
			t.Errorf("%s: right read-back PSNR %.1f", merge, p)
		}
	}
}

func TestJointDuplicateDetection(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8})
	// Identical cameras: overlap 0.95 clamps both to nearly the same
	// window — make them exactly identical by writing the same frames.
	frames := visualroad.Generate(pairCfg(0, 0, 23), 8)
	for _, name := range []string{"dup-a", "dup-b"} {
		if err := s.Create(name, -1); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(name, WriteSpec{FPS: 8, Codec: codec.H264, Quality: 90}, frames); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.JointCompressPair(GOPRef{"dup-a", 0, 0}, GOPRef{"dup-b", 0, 0}, MergeUnprojected)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Duplicate {
		t.Fatal("identical GOPs not detected as duplicates")
	}
	// The duplicate's bytes collapse to a pointer.
	if res.BytesAfter >= res.BytesBefore {
		t.Errorf("duplicate did not save space: %d -> %d", res.BytesBefore, res.BytesAfter)
	}
	// Reads of the deduplicated video still work.
	out, err := s.Read("dup-b", ReadSpec{T: Temporal{Start: 0, End: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Frames) != 8 {
		t.Errorf("dup read %d frames", len(out.Frames))
	}
}

func TestJointAbortsOnDisjointViews(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8})
	// Two unrelated scenes: no homography should survive verification.
	a := visualroad.Generate(visualroad.Config{Width: 128, Height: 96, FPS: 8, Seed: 31}, 8)
	b := visualroad.Generate(visualroad.Config{Width: 128, Height: 96, FPS: 8, Seed: 99, Vehicles: 2}, 8)
	for name, frames := range map[string][]*frame.Frame{"scene-a": a, "scene-b": b} {
		if err := s.Create(name, -1); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(name, WriteSpec{FPS: 8, Codec: codec.H264, Quality: 90}, frames); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.JointCompressPair(GOPRef{"scene-a", 0, 0}, GOPRef{"scene-b", 0, 0}, MergeUnprojected)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compressed {
		t.Error("disjoint scenes should not joint-compress")
	}
	// Both videos remain intact.
	for _, name := range []string{"scene-a", "scene-b"} {
		if _, err := s.Read(name, ReadSpec{T: Temporal{Start: 0, End: 1}}); err != nil {
			t.Errorf("%s unreadable after aborted joint compression: %v", name, err)
		}
	}
}

func TestJointCompressAllPipeline(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8})
	writePair(t, s, pairCfg(0.5, 0, 24), 16) // 2 GOPs per stream
	st, err := s.JointCompressAll(MergeUnprojected)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 4 {
		t.Errorf("scanned %d GOPs, want 4", st.Scanned)
	}
	if st.Pairs == 0 {
		t.Fatal("discovery proposed no pairs for the overlapping streams")
	}
	if st.Compressed == 0 {
		t.Error("no pairs compressed")
	}
	if st.BytesAfter >= st.BytesBefore {
		t.Errorf("sweep did not reduce storage: %d -> %d", st.BytesBefore, st.BytesAfter)
	}
	// Everything still readable.
	for _, name := range []string{"cam-left", "cam-right"} {
		out, err := s.Read(name, ReadSpec{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out.Frames) != 16 {
			t.Errorf("%s read %d frames", name, len(out.Frames))
		}
	}
}

func TestJointSameVideoRejected(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8})
	writeVideo(t, s, "v", scene(16, 64, 48, 25), 8, codec.H264)
	if _, err := s.JointCompressPair(GOPRef{"v", 0, 0}, GOPRef{"v", 0, 1}, MergeUnprojected); err == nil {
		t.Error("joint compression within one logical video should be rejected")
	}
	if _, err := s.JointCompressPair(GOPRef{"v", 0, 0}, GOPRef{"nope", 0, 0}, MergeUnprojected); err == nil {
		t.Error("dangling ref should error")
	}
	if _, err := s.JointCompressPair(GOPRef{"v", 0, 0}, GOPRef{"v", 0, 1}, MergeMode("max")); err == nil {
		t.Error("unknown merge mode should error")
	}
}

func TestFindJointCandidatesSkipsUnrelated(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8})
	writePair(t, s, pairCfg(0.5, 0, 26), 8)
	// Add an unrelated dark scene; it should not pair with the cameras.
	dark := scene(8, 128, 96, 27)
	for _, f := range dark {
		for i := range f.Data {
			f.Data[i] /= 4
		}
	}
	if err := s.Create("unrelated", -1); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("unrelated", WriteSpec{FPS: 8, Codec: codec.H264, Quality: 90}, dark); err != nil {
		t.Fatal(err)
	}
	pairs, scanned, err := s.FindJointCandidates()
	if err != nil {
		t.Fatal(err)
	}
	if scanned != 3 {
		t.Errorf("scanned %d", scanned)
	}
	for _, pc := range pairs {
		if pc.A.Video == "unrelated" || pc.B.Video == "unrelated" {
			t.Errorf("unrelated video proposed for joint compression: %+v", pc)
		}
	}
}
