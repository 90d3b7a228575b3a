package codec

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"

	"repro/internal/frame"
)

var errTruncated = errors.New("codec: truncated residual stream")

// residReader consumes the zigzag-coded residual stream.
type residReader struct {
	data []byte
	pos  int
}

func (r *residReader) next() (int, error) {
	if r.pos >= len(r.data) {
		return 0, errTruncated
	}
	b := r.data[r.pos]
	r.pos++
	var z uint32
	if b < 255 {
		z = uint32(b)
	} else {
		if r.pos+2 > len(r.data) {
			return 0, errTruncated
		}
		z = uint32(r.data[r.pos]) | uint32(r.data[r.pos+1])<<8
		r.pos += 2
	}
	return int(z>>1) ^ -int(z&1), nil
}

// DecodeRange reconstructs frames [from, to). Every frame from the GOP
// start through to-1 must be decoded because P-frames chain; only the
// requested window is materialized and returned. This asymmetry — paying
// for Δ dependencies you do not return — is exactly the look-back cost the
// planner's c_l models.
func (c lossyCodec) DecodeRange(data []byte, hd Header, from, to int) ([]*frame.Frame, error) {
	if err := frame.YUV420.Validate(hd.Width, hd.Height); err != nil {
		return nil, fmt.Errorf("codec: %s: %w", c.id, err)
	}
	prof := c.prof
	q := quantizer(hd.Quality)
	payloads, err := framePayloads(data, hd)
	if err != nil {
		return nil, err
	}
	out := make([]*frame.Frame, 0, to-from)
	var recon [3]plane
	for i := 0; i < to; i++ {
		stream, err := inflateFrame(payloads[i], hd, prof, hd.FrameTypes[i] != IFrame)
		if err != nil {
			return nil, fmt.Errorf("codec: frame %d entropy decode: %w", i, err)
		}
		rd := &residReader{data: stream}
		if hd.FrameTypes[i] == IFrame {
			next := [3]plane{}
			for p, dim := range planeDims(hd.Width, hd.Height) {
				next[p], err = decodeIntraPlane(rd, dim.w, dim.h, q, prof.intra2D)
				if err != nil {
					return nil, fmt.Errorf("codec: frame %d plane %d: %w", i, p, err)
				}
			}
			recon = next
		} else {
			if i == 0 {
				return nil, fmt.Errorf("codec: GOP begins with P-frame")
			}
			mvs, n, err := decodeMVs(stream, hd.Width, hd.Height, prof)
			if err != nil {
				return nil, fmt.Errorf("codec: frame %d MV table: %w", i, err)
			}
			rd.pos = n
			next := [3]plane{}
			for p, dim := range planeDims(hd.Width, hd.Height) {
				bs, scale := prof.blockSize, 1
				if p > 0 {
					bs, scale = bs/2, 2
				}
				next[p], err = decodeInterPlane(rd, recon[p], mvs, dim.w, dim.h, bs, scale, q)
				if err != nil {
					return nil, fmt.Errorf("codec: frame %d plane %d: %w", i, p, err)
				}
			}
			recon = next
		}
		if i >= from {
			out = append(out, assembleYUV420(hd.Width, hd.Height, recon))
		}
	}
	return out, nil
}

// inflateFrame inflates one frame's residual stream and checks that its
// length fits the header before any plane is allocated. Every Y, U and
// V sample codes one residual of 1 or 3 bytes, after the motion-vector
// table for a P-frame, so a legal stream holds between mv+samples and
// mv+3*samples bytes. The lower bound stops a crafted header (16K x 16K
// over a few bytes of payload) from allocating its planes before the
// residuals run out; the upper bound caps the inflate, so an inflate
// bomb cannot grow past the largest frame the header allows.
func inflateFrame(payload []byte, hd Header, prof profile, pFrame bool) ([]byte, error) {
	samples := hd.Width*hd.Height + 2*(hd.Width/2)*(hd.Height/2)
	mvBytes := 0
	if pFrame && prof.searchRadius > 0 {
		bs := prof.blockSize
		mvBytes = 2 * ((hd.Width + bs - 1) / bs) * ((hd.Height + bs - 1) / bs)
	}
	least, most := mvBytes+samples, mvBytes+3*samples
	zr := flate.NewReader(bytes.NewReader(payload))
	defer zr.Close()
	stream, err := io.ReadAll(io.LimitReader(zr, int64(most)+1))
	if err != nil {
		return nil, err
	}
	if len(stream) > most {
		return nil, fmt.Errorf("residual stream exceeds the %d bytes a %dx%d frame can code", most, hd.Width, hd.Height)
	}
	if len(stream) < least {
		return nil, fmt.Errorf("%d-byte residual stream, a %dx%d frame needs at least %d: %w", len(stream), hd.Width, hd.Height, least, errTruncated)
	}
	return stream, nil
}

// planeDims returns the Y, U, V plane dimensions for a YUV420 frame.
func planeDims(w, h int) [3]struct{ w, h int } {
	return [3]struct{ w, h int }{{w, h}, {w / 2, h / 2}, {w / 2, h / 2}}
}

func decodeIntraPlane(rd *residReader, w, h, q int, intra2D bool) (plane, error) {
	rec := plane{w, h, make([]byte, w*h)}
	for y := 0; y < h; y++ {
		row := y * w
		for x := 0; x < w; x++ {
			qr, err := rd.next()
			if err != nil {
				return rec, err
			}
			pred := intraPredict(rec, x, y, intra2D)
			rec.pix[row+x] = clampU8(pred + qr*q)
		}
	}
	return rec, nil
}

func decodeInterPlane(rd *residReader, ref plane, mvs []mv, w, h, bs, scale, q int) (plane, error) {
	rec := plane{w, h, make([]byte, w*h)}
	bw := (w + bs - 1) / bs
	for y := 0; y < h; y++ {
		row := y * w
		by := y / bs
		for x := 0; x < w; x++ {
			qr, err := rd.next()
			if err != nil {
				return rec, err
			}
			m := mvs[by*bw+x/bs]
			pred := refSample(ref, x+m.dx/scale, y+m.dy/scale)
			rec.pix[row+x] = clampU8(pred + qr*q)
		}
	}
	return rec, nil
}

func assembleYUV420(w, h int, planes [3]plane) *frame.Frame {
	f := frame.New(w, h, frame.YUV420)
	n := copy(f.Data, planes[0].pix)
	n += copy(f.Data[n:], planes[1].pix)
	copy(f.Data[n:], planes[2].pix)
	return f
}
