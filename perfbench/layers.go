package main

import (
	"runtime"

	"repro/internal/storage"
	"repro/vss"
)

// layerMetrics is the per-layer list every traced run prints, in the
// order BENCHMARK.json declares it. A workload that bypasses a layer
// reports 0 for it: the prediction there is "no change".
var layerMetrics = []struct{ name, unit string }{
	{"core.read.self_ms_p50", "ms"},
	{"core.plan_ms_per_read", "ms"},
	{"core.cache_admit_ms_per_read", "ms"},
	{"core.gops_decoded_per_read", "count"},
	{"core.passthrough_frac", "frac"},
	{"core.admitted_frac", "frac"},
	{"core.views_end", "count"},
	{"core.query.self_ms_p50", "ms"},
	{"core.query.gops_pruned_frac", "frac"},
	{"core.writer.append_blocked_ms_per_gop", "ms"},
	{"core.writer.close_ms", "ms"},
	{"core.maintain_ms", "ms"},
	{"core.joint_ms", "ms"},
	{"core.joint_accept_frac", "frac"},
	{"core.joint_saved_frac", "frac"},
	{"codec.encode_ms_per_gop", "ms"},
	{"codec.decode_ms_per_gop", "ms"},
	{"codec.busy_frac", "frac"},
	{"codec.encode.h264_ms_per_gop", "ms"},
	{"codec.encode.hevc_ms_per_gop", "ms"},
	{"codec.decode.h264_ms_per_gop", "ms"},
	{"codec.decode.hevc_ms_per_gop", "ms"},
	{"codec.decode.ls_ms_per_gop", "ms"},
	{"storage.read_ops_per_read", "count"},
	{"storage.read_ms_p50", "ms"},
	{"storage.delete_ops", "count"},
	{"storage.link_ops", "count"},
	{"storage.write_ms_p50", "ms"},
	{"storage.write_amp", "ratio"},
	{"storage.errors", "count"},
	{"catalog.bytes_per_gop", "B"},
	{"server.respcache_hit_frac", "frac"},
	{"server.flush_ms_per_read", "ms"},
	{"server.flushes_per_read", "count"},
	{"server.admission_wait_ms_per_read", "ms"},
	{"server.rejected_frac", "frac"},
	{"router.fetch_ms_p50", "ms"},
	{"router.node_fetch_ms_p50", "ms"},
	{"router.hop_self_ms_p50", "ms"},
	{"router.write_ms_p50", "ms"},
	{"router.failovers", "count"},
	{"router.journal_depth_end", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"gen.late_ms_p95", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
}

func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown layer metric " + name)
}

// phase is the timed part of a pass: one or more intervals, each with
// counter readings at both ends, and the workload ops (reads, queries,
// requests) run in them.
type phase struct {
	intervals [][2]counters
	ops       int
}

// timed returns a phase of one interval.
func timed(before, after counters, ops int) phase {
	return phase{intervals: [][2]counters{{before, after}}, ops: ops}
}

// sum adds up f over the phase's intervals.
func (p phase) sum(f func(a, b counters) float64) float64 {
	var total float64
	for _, iv := range p.intervals {
		total += f(iv[0], iv[1])
	}
	return total
}

// stage sums a pipeline stage's observation count and total
// milliseconds over the phase.
func (p phase) stage(name string) (count, totalMs float64) {
	count = p.sum(func(a, b counters) float64 { return float64(b.pipe[name].Count - a.pipe[name].Count) })
	totalMs = p.sum(func(a, b counters) float64 { return b.pipe[name].TotalMillis - a.pipe[name].TotalMillis })
	return count, totalMs
}

// counterLayers fills the layer metrics that come from the program's own
// counters: the store pipeline's stage histograms, BackendStats,
// ClusterStats and the Go runtime. Ratios whose base is zero read 0.
func (r *report) counterLayers(p phase) {
	ops := float64(p.ops)
	_, plan := p.stage("plan")
	_, admit := p.stage("cache_admit")
	r.layer("core.plan_ms_per_read", ratio(plan, ops), p.ops)
	r.layer("core.cache_admit_ms_per_read", ratio(admit, ops), p.ops)

	encN, encMs := p.stage("encode")
	decN, decMs := p.stage("decode")
	r.layer("codec.encode_ms_per_gop", ratio(encMs, encN), int(encN))
	r.layer("codec.decode_ms_per_gop", ratio(decMs, decN), int(decN))
	wall := p.sum(func(a, b counters) float64 { return ms(b.at.Sub(a.at)) })
	r.layer("codec.busy_frac", ratio(encMs+decMs, wall*float64(runtime.GOMAXPROCS(0))), 0)
	for _, c := range []struct{ stage, codec string }{
		{"encode", "h264"}, {"encode", "hevc"}, {"decode", "h264"}, {"decode", "hevc"}, {"decode", "ls"},
	} {
		n, total := p.stage(c.stage + "/" + c.codec)
		r.layer("codec."+c.stage+"."+c.codec+"_ms_per_gop", ratio(total, n), int(n))
	}

	backend := func(f func(s storage.BackendStats) int64) float64 {
		return p.sum(func(a, b counters) float64 { return float64(f(b.backend) - f(a.backend)) })
	}
	r.layer("storage.read_ops_per_read", ratio(backend(func(s storage.BackendStats) int64 { return s.Reads }), ops), p.ops)
	r.layer("storage.delete_ops", backend(func(s storage.BackendStats) int64 { return s.Deletes }), 0)
	r.layer("storage.link_ops", backend(func(s storage.BackendStats) int64 { return s.Links }), 0)
	r.layer("storage.errors", backend(func(s storage.BackendStats) int64 { return s.Errors }), 0)
	writes := backend(func(s storage.BackendStats) int64 { return s.Writes })
	catalog := p.sum(func(a, b counters) float64 { return float64(b.catalog - a.catalog) })
	r.layer("catalog.bytes_per_gop", ratio(catalog, writes), int(writes))

	r.layer("router.failovers", p.sum(func(a, b counters) float64 { return float64(b.cluster.Failovers - a.cluster.Failovers) }), 0)
	if n := len(p.intervals); n > 0 {
		r.layer("router.journal_depth_end", float64(p.intervals[n-1][1].cluster.JournalDepth), 0)
	}

	gc := p.sum(func(a, b counters) float64 { return b.gcCPU - a.gcCPU })
	cpu := p.sum(func(a, b counters) float64 { return b.totalCPU - a.totalCPU })
	alloc := p.sum(func(a, b counters) float64 { return b.allocBytes - a.allocBytes })
	r.layer("runtime.gc_cpu_frac", ratio(gc, cpu), 0)
	r.layer("runtime.alloc_mb_per_op", ratio(alloc/1e6, ops), p.ops)
}

// spanLayers fills the layer metrics that come from the benchmark's own
// spans, keeping the spans that started inside the phase's intervals.
func (r *report) spanLayers(tr *tracer, p phase, opName string) {
	if tr == nil {
		return
	}
	var inPhase []span
	all := tr.snapshot()
	for _, s := range all {
		for _, iv := range p.intervals {
			if s.Start >= iv[0].at.Sub(tr.t0) && s.Start <= iv[1].at.Sub(tr.t0) {
				inPhase = append(inPhase, s)
				break
			}
		}
	}
	ix, full := indexSpans(inPhase), indexSpans(all)
	p50 := func(name string, xs []float64) { r.layer(name, median(xs), len(xs)) }
	p50("core.read.self_ms_p50", ix.selfMillis("call.read"))
	p50("core.query.self_ms_p50", ix.selfMillis("call.query"))
	p50("storage.read_ms_p50", ix.durMillis("storage.read"))
	p50("storage.write_ms_p50", ix.durMillis("storage.write"))
	p50("router.fetch_ms_p50", ix.durMillis("router.read"))
	p50("router.node_fetch_ms_p50", ix.durMillis("node.read"))
	p50("router.hop_self_ms_p50", ix.selfMillis("router.read"))
	// Router writes happen while the fleet is set up; they are what
	// moves setup_s, so they are taken from the whole pass.
	p50("router.write_ms_p50", full.durMillis("router.write"))
	r.layer("trace.unattributed_frac", ix.unattributedFrac(opName), len(ix.byName[opName]))
}

// viewsEnd counts the physical videos (the original plus materialized
// views) across the given logical videos.
func viewsEnd(sys *vss.System, names ...string) int {
	n := 0
	for _, name := range names {
		if _, phys, err := sys.Store().Info(name); err == nil {
			n += len(phys)
		}
	}
	return n
}
