package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/storage"
)

// stacks pairs each kind of backend a workload hands to vss.OpenWith or
// router.New with the same backend under the timing wrapper.
func stacks(t *testing.T) map[string]storage.Backend {
	dir := t.TempDir()
	local, err := storage.Open(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := storage.OpenShardedReplicated([]string{
		filepath.Join(dir, "s0"), filepath.Join(dir, "s1"), filepath.Join(dir, "s2"),
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := router.New([]storage.Backend{storage.NewMem(), storage.NewMem()}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]storage.Backend{
		"localfs": local,
		"sharded": sharded,
		"mem":     storage.NewMem(),
		"cluster": cluster,
		// Never dialed: only its capabilities are inspected.
		"remote": storage.NewRemote(&server.Client{Base: "http://127.0.0.1:1"}, storage.RemoteOptions{}),
	}
}

func TestWrapperKeepsEveryCapability(t *testing.T) {
	for name, bare := range stacks(t) {
		wrapped := wrapBackend(bare, newTracer(), "storage")
		// As a store sees them: under core's own instrumentation layer.
		for _, pair := range [][2]storage.Backend{{bare, wrapped}, {storage.Instrument(bare), storage.Instrument(wrapped)}} {
			b, w := pair[0], pair[1]
			if (storage.AsScrubber(b) != nil) && storage.AsScrubber(w) == nil {
				t.Errorf("%s: AsScrubber finds the bare backend but not the wrapped one", name)
			}
			if (storage.AsClusterReporter(b) != nil) && storage.AsClusterReporter(w) == nil {
				t.Errorf("%s: AsClusterReporter finds the bare backend but not the wrapped one", name)
			}
			if _, ok := b.(storage.ContextReader); ok {
				if _, ok := w.(storage.ContextReader); !ok {
					t.Errorf("%s: wrapped stack lost ContextReader", name)
				}
			}
			if _, ok := b.(storage.ContextExpectReader); ok {
				if _, ok := w.(storage.ContextExpectReader); !ok {
					t.Errorf("%s: wrapped stack lost ContextExpectReader", name)
				}
			}
			if _, ok := b.(storage.ExpectReader); ok {
				if _, ok := w.(storage.ExpectReader); !ok {
					t.Errorf("%s: wrapped stack lost ExpectReader", name)
				}
			}
		}
	}
}

func TestWrapperKeepsTempSweeping(t *testing.T) {
	root := t.TempDir()
	local, err := storage.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(root, "v", "p0", ".0.gop.tmp-1")
	if err := os.MkdirAll(filepath.Dir(orphan), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	stack := storage.Instrument(wrapBackend(local, newTracer(), "storage"))
	if err := stack.SweepTemps(time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp survived a sweep through the wrapper (stat: %v)", err)
	}
}

// hintRecorder is a backend that records what its context-and-hint read
// path received.
type hintRecorder struct {
	*storage.Mem
	traceID string
	want    int64
}

func (h *hintRecorder) ReadGOPExpectContext(ctx context.Context, video, physDir string, seq int, want int64) ([]byte, error) {
	h.traceID, h.want = obs.TraceID(ctx), want
	return h.Mem.ReadGOP(video, physDir, seq)
}

func TestWrapperForwardsContextAndSizeHint(t *testing.T) {
	rec := &hintRecorder{Mem: storage.NewMem()}
	if err := rec.WriteGOP("v", "p0", 0, []byte("gop")); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	stack := storage.Instrument(wrapBackend(rec, tr, "storage"))
	ctx, end := tr.beginOp(context.Background(), "op.read")
	trace := obs.StartTrace("", "read")
	if _, err := stack.ReadGOPExpectContext(obs.WithTrace(ctx, trace), "v", "p0", 0, 3); err != nil {
		t.Fatal(err)
	}
	end()
	if rec.traceID != trace.ID() || rec.want != 3 {
		t.Fatalf("inner backend saw trace %q and hint %d, want %q and 3", rec.traceID, rec.want, trace.ID())
	}
	var read, op span
	for _, s := range tr.snapshot() {
		switch s.Name {
		case "storage.read":
			read = s
		case "op.read":
			op = s
		}
	}
	if read.Parent != op.ID || read.Op != op.ID {
		t.Fatalf("storage span %+v is not under the op span %d", read, op.ID)
	}
}
