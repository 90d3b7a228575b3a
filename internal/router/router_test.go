package router_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
	"repro/vss"
)

// The cluster must satisfy the full backend surface plus the interfaces
// core discovers through the wrap chain.
var (
	_ storage.Backend         = (*storage.Ring)(nil)
	_ storage.Scrubber        = (*storage.Ring)(nil)
	_ storage.ExpectReader    = (*storage.Ring)(nil)
	_ storage.ClusterReporter = (*storage.Ring)(nil)
)

// memberKinds builds one ring member of each local kind: an in-memory
// stand-in for a remote node, and a localfs root (what a sharded store's
// members are).
var memberKinds = map[string]func(t *testing.T) storage.Backend{
	"mem": func(*testing.T) storage.Backend { return storage.NewMem() },
	"localfs": func(t *testing.T) storage.Backend {
		s, err := storage.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	},
}

// ringOf builds a cluster over n fresh members and returns the members
// for direct inspection.
func ringOf(t *testing.T, newMember func(*testing.T) storage.Backend, n, replicas int) (*storage.Ring, []storage.Backend) {
	t.Helper()
	nodes := make([]storage.Backend, n)
	for i := range nodes {
		nodes[i] = newMember(t)
	}
	c, err := router.New(nodes, nil, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return c, nodes
}

// memCluster builds a cluster over in-memory nodes.
func memCluster(t *testing.T, n, replicas int) (*storage.Ring, []storage.Backend) {
	t.Helper()
	return ringOf(t, memberKinds["mem"], n, replicas)
}

func TestClusterConformance(t *testing.T) {
	configs := []struct {
		name        string
		n, replicas int
	}{
		{"1node", 1, 1},
		{"3node-r2", 3, 2},
		{"3node-r3", 3, 3},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			c, _ := memCluster(t, cfg.n, cfg.replicas)
			storagetest.Conformance(t, c)
		})
	}
}

func TestClusterConcurrentWriteSameGOP(t *testing.T) {
	c, _ := memCluster(t, 3, 2)
	storagetest.ConcurrentWriteSameGOP(t, c)
}

// payload derives a deterministic GOP body from its sequence number.
func payload(seq int) []byte {
	return bytes.Repeat([]byte{byte(seq + 1)}, 64+seq)
}

// nodeAddrs returns the GOP addresses a node currently stores.
func nodeAddrs(t *testing.T, node storage.Backend) map[storage.GOPAddr]bool {
	t.Helper()
	held := make(map[storage.GOPAddr]bool)
	err := node.Walk(func(video, physDir string, seq int, size int64) error {
		held[storage.GOPAddr{Video: video, PhysDir: physDir, Seq: seq}] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return held
}

// TestClusterWipeNodeRepair is the recovery drill: wipe one node of a
// replicas=2 fleet, demand byte-identical reads through failover, then
// recover full replication with one Repair (the copies failover reads
// caught missing) plus one scrub (the copies reads never probed — a
// healthy primary hides its wiped successor). A second scrub proves
// convergence. It runs over in-memory and localfs members alike.
func TestClusterWipeNodeRepair(t *testing.T) {
	for kind, newMember := range memberKinds {
		t.Run(kind, func(t *testing.T) { wipeNodeRepair(t, newMember) })
	}
}

func wipeNodeRepair(t *testing.T, newMember func(*testing.T) storage.Backend) {
	const gops = 16
	c, nodes := ringOf(t, newMember, 3, 2)
	sizes := storage.StaticSizes{}
	for i := range gops {
		if err := c.WriteGOP("v", "p", i, payload(i)); err != nil {
			t.Fatal(err)
		}
		sizes[storage.GOPAddr{Video: "v", PhysDir: "p", Seq: i}] = int64(len(payload(i)))
	}

	wiped := nodeAddrs(t, nodes[0])
	if len(wiped) == 0 {
		t.Fatal("node 0 holds nothing; test needs a non-trivial wipe")
	}
	if err := nodes[0].DeleteVideo("v"); err != nil {
		t.Fatal(err)
	}

	// Every GOP still reads back byte-identical through failover.
	for i := range gops {
		got, err := c.ReadGOP("v", "p", i)
		if err != nil {
			t.Fatalf("read %d with node 0 wiped: %v", i, err)
		}
		if !bytes.Equal(got, payload(i)) {
			t.Fatalf("read %d: degraded bytes differ", i)
		}
	}
	st := c.ClusterStats()
	if st.Failovers == 0 {
		t.Error("no failovers recorded despite a wiped node")
	}
	if st.JournalDepth == 0 {
		t.Error("failover reads journaled nothing")
	}

	// One repair cycle restores every copy the reads discovered missing;
	// the scrub restores the rest.
	repaired, err := c.Repair()
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	scrub, err := c.Scrub(sizes)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if repaired+int(scrub.Repaired) != len(wiped) {
		t.Errorf("repair (%d) + scrub (%d) restored copies != %d wiped", repaired, scrub.Repaired, len(wiped))
	}
	if scrub.Unrecoverable != 0 {
		t.Errorf("scrub: unrecoverable=%d, want 0", scrub.Unrecoverable)
	}
	for a := range wiped {
		got, err := nodes[0].ReadGOP(a.Video, a.PhysDir, a.Seq)
		if err != nil {
			t.Fatalf("node 0 still missing %v after repair+scrub: %v", a, err)
		}
		if !bytes.Equal(got, payload(a.Seq)) {
			t.Fatalf("node 0 repaired copy of %v differs", a)
		}
	}

	// Convergence: a second scrub finds nothing to do.
	scrub2, err := c.Scrub(sizes)
	if err != nil {
		t.Fatalf("second scrub: %v", err)
	}
	if scrub2.Repaired != 0 || scrub2.Unrecoverable != 0 {
		t.Errorf("second scrub: repaired=%d unrecoverable=%d, want 0/0", scrub2.Repaired, scrub2.Unrecoverable)
	}
	if st := c.ClusterStats(); st.JournalDepth != 0 {
		t.Errorf("journal depth = %d after full recovery", st.JournalDepth)
	}
}

// gated wraps a backend that can be taken down: every operation fails
// while down is set, simulating an unreachable node.
type gated struct {
	storage.Backend
	down atomic.Bool
}

var errDown = errors.New("node unreachable")

func (g *gated) check() error {
	if g.down.Load() {
		return errDown
	}
	return nil
}

func (g *gated) WriteGOP(video, physDir string, seq int, data []byte) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.Backend.WriteGOP(video, physDir, seq, data)
}

func (g *gated) ReadGOP(video, physDir string, seq int) ([]byte, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	return g.Backend.ReadGOP(video, physDir, seq)
}

func (g *gated) GOPSize(video, physDir string, seq int) (int64, error) {
	if err := g.check(); err != nil {
		return 0, err
	}
	return g.Backend.GOPSize(video, physDir, seq)
}

func (g *gated) DeleteGOP(video, physDir string, seq int) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.Backend.DeleteGOP(video, physDir, seq)
}

func (g *gated) Walk(fn func(video, physDir string, seq int, size int64) error) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.Backend.Walk(fn)
}

// TestClusterOutageJournalsWrites takes one node down, keeps writing,
// and requires the journal to re-replicate everything the node missed
// once it returns — without a scrub. It runs over in-memory and localfs
// members alike.
func TestClusterOutageJournalsWrites(t *testing.T) {
	for kind, newMember := range memberKinds {
		t.Run(kind, func(t *testing.T) { outageJournalsWrites(t, newMember) })
	}
}

func outageJournalsWrites(t *testing.T, newMember func(*testing.T) storage.Backend) {
	const gops = 12
	down := &gated{Backend: newMember(t)}
	nodes := []storage.Backend{newMember(t), down, newMember(t)}
	c, err := router.New(nodes, []string{"n0", "n1", "n2"}, 2)
	if err != nil {
		t.Fatal(err)
	}

	down.down.Store(true)
	sizes := storage.StaticSizes{}
	for i := range gops {
		if err := c.WriteGOP("v", "p", i, payload(i)); err != nil {
			t.Fatalf("write %d with a node down: %v", i, err)
		}
		sizes[storage.GOPAddr{Video: "v", PhysDir: "p", Seq: i}] = int64(len(payload(i)))
	}
	depth := c.ClusterStats().JournalDepth
	if depth == 0 {
		t.Fatal("no writes journaled during the outage")
	}
	for i := range gops {
		got, err := c.ReadGOP("v", "p", i)
		if err != nil || !bytes.Equal(got, payload(i)) {
			t.Fatalf("read %d during outage: %v", i, err)
		}
	}

	// While the node is still down, repairs fail and re-queue.
	if _, err := c.Repair(); err == nil {
		t.Error("repair against a down node reported success")
	}
	if got := c.ClusterStats().JournalDepth; got != depth {
		t.Errorf("journal depth after failed repair = %d, want %d", got, depth)
	}

	down.down.Store(false)
	repaired, err := c.Repair()
	if err != nil {
		t.Fatalf("repair after recovery: %v", err)
	}
	if repaired != depth {
		t.Errorf("repaired %d, want %d", repaired, depth)
	}
	held := nodeAddrs(t, down.Backend)
	for a := range held {
		got, err := down.Backend.ReadGOP(a.Video, a.PhysDir, a.Seq)
		if err != nil || !bytes.Equal(got, payload(a.Seq)) {
			t.Fatalf("recovered node copy of %v wrong: %v", a, err)
		}
	}
	if st := c.ClusterStats(); st.JournalDepth != 0 || st.RepairFailures == 0 {
		t.Errorf("stats after recovery: depth=%d repair_failures=%d", st.JournalDepth, st.RepairFailures)
	}

	// The write-path journal was complete: full replication is already
	// restored, no scrub needed.
	scrub, err := c.Scrub(sizes)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if scrub.Repaired != 0 || scrub.Unrecoverable != 0 {
		t.Errorf("scrub after journal-only recovery: repaired=%d unrecoverable=%d, want 0/0",
			scrub.Repaired, scrub.Unrecoverable)
	}
}

// primaryOf mirrors the cluster's ring hash so tests can pick addresses
// landing on a chosen primary node.
func primaryOf(video, physDir string, seq, nodes int) int {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s\x00%s\x00%d", video, physDir, seq)
	return int(h.Sum32() % uint32(nodes))
}

// TestClusterDemotesFlappingNode drives repeated failures into one node
// and requires it to drop to the back of the read order (demoted), then
// return to service on its first success.
func TestClusterDemotesFlappingNode(t *testing.T) {
	flaky := &gated{Backend: storage.NewMem()}
	nodes := []storage.Backend{storage.NewMem(), flaky}
	c, err := router.New(nodes, []string{"good", "flaky"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Addresses whose primary is the flaky node (index 1), so reads try
	// it first while healthy.
	var seqs []int
	for seq := 0; len(seqs) < 4; seq++ {
		if primaryOf("v", "p", seq, 2) == 1 {
			seqs = append(seqs, seq)
		}
	}
	for _, seq := range seqs {
		if err := c.WriteGOP("v", "p", seq, payload(seq)); err != nil {
			t.Fatal(err)
		}
	}

	flaky.down.Store(true)
	for _, seq := range seqs {
		if _, err := c.ReadGOP("v", "p", seq); err != nil {
			t.Fatalf("read %d: %v", seq, err)
		}
	}
	st := c.ClusterStats()
	if !st.NodeHealth[1].Demoted {
		t.Fatalf("flaky node not demoted after %d consecutive failures: %+v", len(seqs), st.NodeHealth[1])
	}
	if st.NodeHealth[1].Errors == 0 || st.Failovers == 0 {
		t.Errorf("stats: %+v failovers=%d", st.NodeHealth[1], st.Failovers)
	}

	// Demoted means later reads stop paying for the dead node: they serve
	// from the healthy replica without touching it.
	before := st.NodeHealth[1].Errors
	for _, seq := range seqs {
		if _, err := c.ReadGOP("v", "p", seq); err != nil {
			t.Fatalf("read %d while demoted: %v", seq, err)
		}
	}
	if got := c.ClusterStats().NodeHealth[1].Errors; got != before {
		t.Errorf("demoted node still charged errors: %d -> %d", before, got)
	}

	// One success re-promotes.
	flaky.down.Store(false)
	if _, err := c.Repair(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if err := c.WriteGOP("v", "p", seqs[0], payload(seqs[0])); err != nil {
		t.Fatal(err)
	}
	if st := c.ClusterStats(); st.NodeHealth[1].Demoted {
		t.Error("node still demoted after a successful operation")
	}
}

// wireCluster boots n real vssd nodes on TCP listeners and a cluster
// routing to them over the wire protocol.
func wireCluster(t *testing.T, n, replicas int) (*storage.Ring, []*vss.System) {
	t.Helper()
	addrs := make([]string, n)
	systems := make([]*vss.System, n)
	for i := range n {
		sys, err := vss.OpenWith(t.TempDir(), vss.Options{GOPFrames: 8}, vss.NewMemBackend())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		ts := httptest.NewServer(server.New(sys, server.Config{}))
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
		systems[i] = sys
	}
	c, err := router.Open(addrs, replicas, storage.RemoteOptions{Attempts: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return c, systems
}

// TestClusterWireWipeDrill is the wipe drill over the real wire
// protocol: httptest vssd nodes, a routed write set, one node's data
// destroyed, byte-identical failover reads, and journal-driven
// re-replication.
func TestClusterWireWipeDrill(t *testing.T) {
	const gops = 12
	c, systems := wireCluster(t, 3, 2)
	if err := c.Ping(t.Context()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	for i := range gops {
		if err := c.WriteGOP("v", "p", i, payload(i)); err != nil {
			t.Fatal(err)
		}
	}

	wiped := nodeAddrs(t, systems[0].Backend())
	if len(wiped) == 0 {
		t.Fatal("node 0 holds nothing")
	}
	if err := systems[0].Backend().DeleteVideo("v"); err != nil {
		t.Fatal(err)
	}

	sizes := storage.StaticSizes{}
	for i := range gops {
		got, err := c.ReadGOP("v", "p", i)
		if err != nil || !bytes.Equal(got, payload(i)) {
			t.Fatalf("degraded wire read %d: %v", i, err)
		}
		sizes[storage.GOPAddr{Video: "v", PhysDir: "p", Seq: i}] = int64(len(payload(i)))
	}
	repaired, err := c.Repair()
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	scrub, err := c.Scrub(sizes)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if repaired+int(scrub.Repaired) != len(wiped) {
		t.Errorf("repair (%d) + scrub (%d) restored copies != %d wiped", repaired, scrub.Repaired, len(wiped))
	}
	for a := range wiped {
		got, err := systems[0].Backend().ReadGOP(a.Video, a.PhysDir, a.Seq)
		if err != nil || !bytes.Equal(got, payload(a.Seq)) {
			t.Fatalf("node 0 copy of %v after wire repair: %v", a, err)
		}
	}
}
