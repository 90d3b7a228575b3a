// Package router composes vssd storage nodes into one replicated
// storage.Backend: a stateless routing layer that places every GOP on R
// of N nodes by a stable hash of its logical address, fans writes out in
// parallel, fails reads over to surviving replicas, and repairs
// out-of-sync copies — first opportunistically from a write-repair
// journal, then authoritatively from full scrub passes.
//
// All of that is storage.Ring, the same replicated ring a sharded store
// runs over local filesystem roots; a node here is what a root is
// there. This package only dials node addresses into storage.Remote
// members.
//
// The router itself holds no durable state: placement is a pure
// function of the address and the node list, and the journal is a
// rediscoverable cache. A router host can be replaced at any time; with
// core's Options.SnapshotCatalog, even its metadata catalog is
// rebuildable from the fleet (core.RestoreCatalog). The node list ORDER
// is part of the cluster's identity, exactly like sharded roots.
// docs/CLUSTER.md is the operator-facing description.
package router

import (
	"repro/internal/server"
	"repro/internal/storage"
)

// Open connects to a fleet of vssd nodes and returns the routing
// backend over them: one keep-alive Client per address, wrapped in
// storage.Remote with the given retry options and labeled by its
// address. The address ORDER is part of the cluster's identity —
// reopening the same fleet in a different order scatters reads. Open
// does not probe the nodes; call Ping for that.
func Open(addrs []string, replicas int, opts storage.RemoteOptions) (*storage.Ring, error) {
	nodes := make([]storage.Backend, len(addrs))
	for i, addr := range addrs {
		nodes[i] = storage.NewRemote(&server.Client{Base: addr, Name: "vssrouter"}, opts)
	}
	return New(nodes, addrs, replicas)
}

// New builds the ring over arbitrary replica stores; see
// storage.NewRing.
func New(nodes []storage.Backend, labels []string, replicas int) (*storage.Ring, error) {
	return storage.NewRing(nodes, labels, replicas)
}
