package codec

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/frame"
)

// maxFuzzPixels bounds the frame volume a fuzzed header may declare
// before FuzzDecodeHeader hands it to DecodeRange. Decoders allocate the
// frames a header declares, so an unbounded target spends each exec on
// one giant allocation instead of on parser coverage.
const maxFuzzPixels = 1 << 22

// asV2 rewrites a v1 container (one-byte legacy codec tag) into the
// equivalent v2 layout (length-prefixed codec name).
func asV2(data []byte) []byte {
	id := legacyCodecFromByte[data[5]]
	out := append([]byte(gopMagic), containerV2, byte(len(id)))
	out = append(out, id...)
	return append(out, data[6:]...)
}

// FuzzDecodeHeader feeds arbitrary bytes to the container parser and the
// decoders behind it: both must return an error on anything they cannot
// decode, never panic — GOP bytes reach them from disk, from replicas,
// and from encoded writes over the wire. The corpus seeds a v1 and a v2
// container of every registered codec (v1 exists only for the legacy
// codecs; their v2 form is a rewritten tag).
func FuzzDecodeHeader(f *testing.F) {
	frames := yuvScene(3, 16, 8, 7)
	for _, id := range Registered() {
		data, _, err := EncodeGOP(frames, id, 50)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if data[4] == containerV1 {
			f.Add(asV2(data))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hd, err := DecodeHeader(data)
		if err != nil {
			return
		}
		if len(hd.FrameTypes) != hd.FrameCount {
			t.Fatalf("header lists %d frame types for %d frames", len(hd.FrameTypes), hd.FrameCount)
		}
		if hd.Width*hd.Height*max(hd.FrameCount, 1) > maxFuzzPixels {
			return
		}
		frames, _, err := DecodeRange(data, 0, -1)
		if err == nil && len(frames) != hd.FrameCount {
			t.Fatalf("decoded %d frames of %d", len(frames), hd.FrameCount)
		}
		DecodeRange(data, hd.FrameCount/2, hd.FrameCount) //nolint:errcheck
	})
}

// TestDecodeRejectsImplausibleHeaders pins the header fields the fuzz
// target found reaching decoders unchecked: each must fail with an
// error, not a panic or a giant allocation.
func TestDecodeRejectsImplausibleHeaders(t *testing.T) {
	frames := yuvScene(2, 16, 8, 9)
	// patch rewrites one header field of a v1 container (offsets past the
	// 6-byte magic/version/tag prefix: pixfmt, quality, w, h, frames).
	patch := func(id ID, fn func(hdr []byte)) []byte {
		data, _, err := EncodeGOP(frames, id, 50)
		if err != nil {
			t.Fatal(err)
		}
		fn(data[6:20])
		return data
	}
	cases := map[string][]byte{
		"h264 odd width":     patch(H264, func(h []byte) { binary.LittleEndian.PutUint32(h[2:], 17) }),
		"hevc zero height":   patch(HEVC, func(h []byte) { binary.LittleEndian.PutUint32(h[6:], 0) }),
		"raw unknown pixfmt": patch(Raw, func(h []byte) { h[0] = 200 }),
		"raw huge width":     patch(Raw, func(h []byte) { binary.LittleEndian.PutUint32(h[2:], maxDimension+1) }),
		"h264 zero frames, huge dims": patch(H264, func(h []byte) {
			binary.LittleEndian.PutUint32(h[2:], 1<<30)
			binary.LittleEndian.PutUint32(h[6:], 1<<30)
			binary.LittleEndian.PutUint32(h[10:], 0)
		}),
	}
	for name, data := range cases {
		if _, _, err := DecodeGOP(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if err := frame.PixelFormat(200).Validate(16, 8); err == nil {
		t.Error("unknown pixel format validated")
	}
}

// TestLossyDecodeChecksPayloadBeforeAllocating crafts a 16384x16384
// header (the largest legal size) over the few-byte payload of a tiny
// GOP. The lossy decoders must reject it from the residual stream's
// length, without first allocating the ~400 MB of planes the header
// declares.
func TestLossyDecodeChecksPayloadBeforeAllocating(t *testing.T) {
	frames := yuvScene(3, 16, 8, 9)
	for _, id := range []ID{H264, HEVC} {
		data, _, err := EncodeGOP(frames, id, 50)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(data[6+2:], maxDimension)
		binary.LittleEndian.PutUint32(data[6+6:], maxDimension)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = DecodeGOP(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: 16K header over a tiny payload decoded", id)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20 {
			t.Errorf("%s: rejecting a 16K header allocated %d MB", id, n>>20)
		}
	}
}
