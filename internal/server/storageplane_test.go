package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/vss"
)

// walkStream frames entries the way handleGOPWalk does, terminator
// included.
func walkStream(t testing.TB, entries ...gopEntry) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, e := range entries {
		payload, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeChunk(&b, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeChunk(&b, nil); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// hugeFrame is a walk stream whose first entry claims the largest
// length a read chunk may carry.
func hugeFrame() []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxChunkBytes)
	return append(hdr[:], `{"v":"a"}`...)
}

// allocDuring returns the bytes allocated while fn runs.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzGOPWalk drives the client's walk decoder with arbitrary streams.
// It must never panic; every entry it hands on must be addressable by
// the storage plane (seq and size >= 0, names one path element); and an
// entry whose length prefix exceeds the walk bound must fail the walk
// without allocating what the prefix claims.
func FuzzGOPWalk(f *testing.F) {
	f.Add(walkStream(f, gopEntry{Video: "cam", Phys: "p000001-64x48r8.h264", Seq: 3, Size: 100}))
	f.Add(walkStream(f,
		gopEntry{Video: ".vss-catalog", Phys: "snapshot", Seq: 0, Size: 9},
		gopEntry{Video: "cam", Phys: "p1", Seq: 0, Size: 1}))
	f.Add(walkStream(f, gopEntry{Video: "cam", Phys: "p1", Seq: -1, Size: 1}))
	f.Add(walkStream(f, gopEntry{Video: "", Phys: "p1", Seq: 0, Size: 1}))
	f.Add(walkStream(f, gopEntry{Video: "..", Phys: "p1", Seq: 0, Size: 1}))
	f.Add(hugeFrame())
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		err := readWalk(bytes.NewReader(data), func(video, physDir string, seq int, size int64) error {
			if seq < 0 || size < 0 || !pathElem(video) || !pathElem(physDir) {
				t.Fatalf("invalid entry passed on: %q/%q/%d size %d", video, physDir, seq, size)
			}
			return nil
		})
		if len(data) < 4 || binary.BigEndian.Uint32(data) <= maxWalkEntryBytes {
			return
		}
		if err == nil {
			t.Fatal("over-bound first entry accepted")
		}
		if n := allocDuring(func() { readWalk(bytes.NewReader(data), nil) }); n > maxWalkEntryBytes {
			t.Fatalf("over-bound entry allocated %d bytes before failing", n)
		}
	})
}

// TestGOPWalkDecoding pins readWalk's accept/reject rules on fixed
// streams, and that a 256 MiB length prefix costs no allocation.
func TestGOPWalkDecoding(t *testing.T) {
	var got []string
	collect := func(video, physDir string, seq int, size int64) error {
		got = append(got, video+"/"+physDir)
		return nil
	}
	ok := walkStream(t,
		gopEntry{Video: "cam", Phys: "p1", Seq: 0, Size: 5},
		gopEntry{Video: ".vss-catalog", Phys: "snapshot", Seq: 0, Size: 7})
	if err := readWalk(bytes.NewReader(ok), collect); err != nil || len(got) != 2 {
		t.Fatalf("valid walk: %v, entries %v", err, got)
	}
	bad := map[string][]byte{
		"negative seq":  walkStream(t, gopEntry{Video: "cam", Phys: "p1", Seq: -1}),
		"negative size": walkStream(t, gopEntry{Video: "cam", Phys: "p1", Size: -1}),
		"empty video":   walkStream(t, gopEntry{Phys: "p1"}),
		"empty phys":    walkStream(t, gopEntry{Video: "cam"}),
		"dot-dot video": walkStream(t, gopEntry{Video: "..", Phys: "p1"}),
		"slash in phys": walkStream(t, gopEntry{Video: "cam", Phys: "a/b"}),
		"truncated":     ok[:len(ok)-4],
		"huge entry":    hugeFrame(),
	}
	for name, data := range bad {
		got = nil
		if err := readWalk(bytes.NewReader(data), collect); err == nil {
			t.Errorf("%s: walk accepted", name)
		}
		if name != "truncated" && len(got) != 0 {
			t.Errorf("%s: invalid entry handed on: %v", name, got)
		}
	}
	var err error
	n := allocDuring(func() { err = readWalk(bytes.NewReader(hugeFrame()), collect) })
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("huge entry error %v", err)
	}
	if n > 1<<20 {
		t.Errorf("a %d-byte length prefix allocated %d bytes before failing", maxChunkBytes, n)
	}
}

// TestStoragePlaneRejectsPathEscapes sends storage-plane requests whose
// video or phys name is an escaped "../" path. Each must be refused
// with 400 and touch nothing outside the node's storage root.
func TestStoragePlaneRejectsPathEscapes(t *testing.T) {
	dir := t.TempDir()
	sys, err := vss.Open(filepath.Join(dir, "store"), vss.Options{GOPFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ts := httptest.NewServer(New(sys, Config{}))
	defer ts.Close()
	if err := os.WriteFile(filepath.Join(dir, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	reqs := []struct{ method, path string }{
		{http.MethodPut, "/gops/..%2F..%2Fescaped/p1/0"},
		{http.MethodPut, "/gops/v/..%2F..%2F..%2Fescaped/0"},
		{http.MethodGet, "/gops/..%2F..%2Fkeep/p1/0"},
		{http.MethodPost, "/gops/v/p1/0/link?video=..%2F..%2Fescaped&phys=p1&seq=0"},
		{http.MethodDelete, "/gops/..%2F..%2Fkeep"},
		{http.MethodDelete, "/gops/v/..%2F..%2F.."},
	}
	for _, rq := range reqs {
		req, err := http.NewRequest(rq.method, ts.URL+rq.path, strings.NewReader("outside"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", rq.method, rq.path, resp.StatusCode)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "escaped")); !os.IsNotExist(err) {
		t.Errorf("a request wrote outside the storage root (stat err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "keep")); err != nil {
		t.Errorf("a request deleted outside the storage root: %v", err)
	}
}
