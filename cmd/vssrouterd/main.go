// Vssrouterd is the scale-out front end of a vssd fleet: it serves the
// same video API as vssd (same endpoints, same wire protocol — clients
// cannot tell them apart) but stores GOPs across N storage nodes over
// the network instead of on local disk. Each GOP is placed on -replicas
// distinct nodes by a stable hash of its address; reads fail over to
// surviving replicas when a node dies, writes stay durable on the first
// replica success, and two background repair mechanisms restore full
// replication: a fast write-repair journal (-repair interval) for
// copies the router watched go missing, and the -maintain loop's full
// scrub for everything else. See docs/CLUSTER.md for topology and
// operations, docs/WIRE.md for the storage-plane protocol.
//
// The router is stateless about GOP placement (a pure hash) and, with
// the default catalog snapshotting, even its metadata catalog is
// recoverable from the fleet: `vssctl recover-catalog -nodes ...`
// rebuilds it into an empty store directory. The node LIST ORDER is
// part of the cluster's identity — run every router and vssctl against
// the same -nodes value.
//
// The storage nodes are plain vssd daemons; they need no cluster
// configuration (the /gops storage plane is always on). Example, three
// nodes and a router with 2-way replication:
//
//	vssd -store /srv/node0 -addr :7745 &
//	vssd -store /srv/node1 -addr :7746 &
//	vssd -store /srv/node2 -addr :7747 &
//	vssrouterd -store /srv/router -replicas 2 \
//	    -nodes http://localhost:7745,http://localhost:7746,http://localhost:7747
//
// Shut down with SIGINT/SIGTERM; in-flight requests get a grace period
// to drain before the store is closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/vss"
)

func main() {
	store := flag.String("store", "", "store directory for the metadata catalog (required)")
	nodes := flag.String("nodes", "", "comma-separated vssd node base URLs (required; order is part of the cluster identity)")
	replicas := flag.Int("replicas", 1, "replicas of each GOP across distinct nodes (1 = no replication)")
	addr := flag.String("addr", ":7740", "listen address (host:port; port 0 picks a free port)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing reads (0 = 2*GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "max reads waiting for a slot before 429 (0 = 4*max-inflight)")
	perClient := flag.Int("per-client", 0, "max in-flight+queued reads per client (0 = max-inflight)")
	cacheMB := flag.Int64("cache-mb", 64, "hot-response cache size in MiB (0 disables)")
	workers := flag.Int("workers", 0, "store CPU worker pool size (0 = GOMAXPROCS)")
	maintain := flag.Duration("maintain", time.Minute, "full maintenance interval: compaction, scrub-repair, catalog snapshot (0 disables)")
	repair := flag.Duration("repair", 5*time.Second, "write-repair journal drain interval (0 disables)")
	noSnapshot := flag.Bool("no-catalog-snapshot", false, "do not replicate the catalog into the fleet on maintenance (disables recover-catalog)")
	slowTraces := flag.Int("slow-traces", 0, "slow-trace ring capacity for /debug/traces (0 = default)")
	logRequests := flag.Bool("log-requests", false, "log one structured line per request to stderr (trace ID, status, stage timings)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on a dedicated address, e.g. localhost:6061 (off by default)")
	flag.Parse()
	if *store == "" || *nodes == "" {
		fmt.Fprintln(os.Stderr, "usage: vssrouterd -store DIR -nodes URL,URL,... [-replicas R] [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	cluster, err := router.Open(splitNodes(*nodes), *replicas, storage.RemoteOptions{})
	if err != nil {
		fatal(err)
	}
	// Probe the fleet before serving: a router that comes up with its
	// nodes down would answer every request with errors. Failing loudly
	// here turns a misconfigured -nodes into a startup error. It is a
	// warning, not fatal — a fleet mid-rolling-restart still serves
	// through its healthy replicas.
	pingCtx, pingCancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := cluster.Ping(pingCtx); err != nil {
		fmt.Fprintf(os.Stderr, "vssrouterd: WARNING: fleet not fully healthy: %v\n", err)
	}
	pingCancel()

	sys, err := vss.Open(*store, vss.Options{
		Workers:         *workers,
		Backend:         cluster,
		SnapshotCatalog: !*noSnapshot,
	})
	if err != nil {
		fatal(err)
	}
	defer sys.Close()

	if *maintain > 0 {
		stop := sys.StartBackground(*maintain)
		defer stop()
	}
	if *repair > 0 {
		stop := startRepair(cluster, *repair)
		defer stop()
	}

	if *logRequests {
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}
	srv := server.New(sys, server.Config{
		MaxInFlightReads:  *maxInflight,
		MaxQueuedReads:    *maxQueue,
		MaxReadsPerClient: *perClient,
		CacheBytes:        *cacheMB << 20,
		SlowTraces:        *slowTraces,
		RequestLog:        *logRequests,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The listen line is a readiness contract, same as vssd's: tooling
	// waits for it and parses the resolved address.
	fmt.Printf("vssrouterd: routing %s across %d nodes (replicas=%d) on %s\n",
		*store, cluster.Nodes(), cluster.Replicas(), ln.Addr())
	// After the readiness line: tooling parses the first " on " line.
	if *debugAddr != "" {
		dbg, err := server.ServeDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("vssrouterd: debug (pprof) at http://%s/debug/pprof/\n", dbg)
	}

	httpSrv := &http.Server{Handler: srv}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case err := <-done:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("vssrouterd: shutting down")
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal(err)
	}
}

// startRepair drains the write-repair journal on an interval. Repair
// errors are expected while a node is down (entries re-queue) and
// surface through the /metrics cluster section, not the log.
func startRepair(cluster *storage.Ring, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				_, _ = cluster.Repair()
			}
		}
	}()
	return func() { close(done) }
}

// splitNodes splits the -nodes list, tolerating stray whitespace and a
// trailing comma.
func splitNodes(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vssrouterd:", err)
	os.Exit(1)
}
