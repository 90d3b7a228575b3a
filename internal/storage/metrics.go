package storage

import (
	"context"
	"sync/atomic"
	"time"
)

// BackendStats is a point-in-time snapshot of an Instrumented backend's
// counters, the storage section of operational metrics (the vssd
// /metrics endpoint serializes it as-is).
type BackendStats struct {
	// Backend is the wrapped backend's kind (see Backend.Name).
	Backend string `json:"backend"`
	// Reads / Writes count ReadGOP / WriteGOP calls; bytes and
	// cumulative latency cover the same calls, so mean latency is
	// nanos/ops and mean throughput is bytes/nanos.
	Reads        int64 `json:"reads"`
	Writes       int64 `json:"writes"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	ReadNanos    int64 `json:"read_nanos"`
	WriteNanos   int64 `json:"write_nanos"`
	// Deletes counts DeleteGOP/DeletePhysical/DeleteVideo; Links counts
	// LinkGOP.
	Deletes int64 `json:"deletes"`
	Links   int64 `json:"links"`
	// Errors counts failed operations of any kind.
	Errors int64 `json:"errors"`
}

// Instrumented wraps a Backend with atomic read/write byte and latency
// counters. All methods delegate; Stats snapshots the counters.
type Instrumented struct {
	b Backend

	reads, writes, deletes, links, errs atomic.Int64
	bytesRead, bytesWritten             atomic.Int64
	readNanos, writeNanos               atomic.Int64
}

// Instrument wraps b with counters. A nil b panics at first use, like
// any nil backend would.
func Instrument(b Backend) *Instrumented {
	if i, ok := b.(*Instrumented); ok {
		return i
	}
	return &Instrumented{b: b}
}

// Unwrap returns the underlying backend.
func (i *Instrumented) Unwrap() Backend { return i.b }

// Stats snapshots the counters.
func (i *Instrumented) Stats() BackendStats {
	return BackendStats{
		Backend:      i.b.Name(),
		Reads:        i.reads.Load(),
		Writes:       i.writes.Load(),
		BytesRead:    i.bytesRead.Load(),
		BytesWritten: i.bytesWritten.Load(),
		ReadNanos:    i.readNanos.Load(),
		WriteNanos:   i.writeNanos.Load(),
		Deletes:      i.deletes.Load(),
		Links:        i.links.Load(),
		Errors:       i.errs.Load(),
	}
}

func (i *Instrumented) note(err error) error {
	if err != nil {
		i.errs.Add(1)
	}
	return err
}

func (i *Instrumented) Name() string { return i.b.Name() }

func (i *Instrumented) WriteGOP(video, physDir string, seq int, data []byte) error {
	start := time.Now()
	err := i.b.WriteGOP(video, physDir, seq, data)
	i.writeNanos.Add(int64(time.Since(start)))
	i.writes.Add(1)
	if err == nil {
		i.bytesWritten.Add(int64(len(data)))
	}
	return i.note(err)
}

func (i *Instrumented) ReadGOP(video, physDir string, seq int) ([]byte, error) {
	start := time.Now()
	data, err := i.b.ReadGOP(video, physDir, seq)
	return i.countRead(data, err, start)
}

// countRead folds one read's outcome into the counters — the single
// accounting path shared by ReadGOP and ReadGOPExpect, so the two can
// never diverge in BackendStats.
func (i *Instrumented) countRead(data []byte, err error, start time.Time) ([]byte, error) {
	i.readNanos.Add(int64(time.Since(start)))
	i.reads.Add(1)
	if err == nil {
		i.bytesRead.Add(int64(len(data)))
	}
	return data, i.note(err)
}

// ReadGOPExpect forwards the size hint when the wrapped backend is an
// ExpectReader (a replicated backend fails over past wrong-sized
// replicas), falling back to a plain ReadGOP otherwise. Unlike
// SweepTemps this does NOT chase Unwrap: a user wrapper's ReadGOP
// behavior (latency injection, tracing) must not be bypassed on the
// read path — wrappers opt in by implementing ExpectReader themselves.
// Counted exactly like ReadGOP.
func (i *Instrumented) ReadGOPExpect(video, physDir string, seq int, want int64) ([]byte, error) {
	er, ok := i.b.(ExpectReader)
	if !ok {
		return i.ReadGOP(video, physDir, seq)
	}
	start := time.Now()
	data, err := er.ReadGOPExpect(video, physDir, seq, want)
	return i.countRead(data, err, start)
}

// ReadGOPContext forwards the caller context when the wrapped backend
// is a ContextReader, falling back to a plain ReadGOP. Same no-Unwrap
// discovery and shared accounting as ReadGOPExpect.
func (i *Instrumented) ReadGOPContext(ctx context.Context, video, physDir string, seq int) ([]byte, error) {
	cr, ok := i.b.(ContextReader)
	if !ok {
		return i.ReadGOP(video, physDir, seq)
	}
	start := time.Now()
	data, err := cr.ReadGOPContext(ctx, video, physDir, seq)
	return i.countRead(data, err, start)
}

// ReadGOPExpectContext forwards both the caller context and the size
// hint, degrading through the wrapped backend's capabilities the way
// ReadGOPExpectCtx does. Counted exactly like ReadGOP.
func (i *Instrumented) ReadGOPExpectContext(ctx context.Context, video, physDir string, seq int, want int64) ([]byte, error) {
	start := time.Now()
	data, err := ReadGOPExpectCtx(ctx, i.b, video, physDir, seq, want)
	return i.countRead(data, err, start)
}

func (i *Instrumented) GOPSize(video, physDir string, seq int) (int64, error) {
	n, err := i.b.GOPSize(video, physDir, seq)
	return n, i.note(err)
}

func (i *Instrumented) DeleteGOP(video, physDir string, seq int) error {
	i.deletes.Add(1)
	return i.note(i.b.DeleteGOP(video, physDir, seq))
}

func (i *Instrumented) LinkGOP(video, srcDir string, srcSeq int, dstVideo, dstDir string, dstSeq int) error {
	i.links.Add(1)
	return i.note(i.b.LinkGOP(video, srcDir, srcSeq, dstVideo, dstDir, dstSeq))
}

func (i *Instrumented) DeletePhysical(video, physDir string) error {
	i.deletes.Add(1)
	return i.note(i.b.DeletePhysical(video, physDir))
}

func (i *Instrumented) DeleteVideo(video string) error {
	i.deletes.Add(1)
	return i.note(i.b.DeleteVideo(video))
}

func (i *Instrumented) Walk(fn func(video, physDir string, seq int, size int64) error) error {
	return i.note(i.b.Walk(fn))
}

// SweepTemps forwards to the nearest backend in the wrap chain that
// stages writes through temp files, chasing Unwrap so user wrappers
// around a localfs/sharded backend do not silently disable crash-temp
// reclamation. Backends with no temps (mem) are a no-op.
func (i *Instrumented) SweepTemps(olderThan time.Duration) error {
	for b := i.b; b != nil; {
		if ts, ok := b.(TempSweeper); ok {
			return i.note(ts.SweepTemps(olderThan))
		}
		u, ok := b.(interface{ Unwrap() Backend })
		if !ok {
			break
		}
		b = u.Unwrap()
	}
	return nil
}
