package server

import (
	"sync/atomic"

	"repro/internal/obs"
	"repro/vss"
)

// metrics is the server's live counter registry. Every field is updated
// with atomics on the request path and read wholesale by the /metrics
// endpoint; gauges (queue depth, in-flight reads, cache occupancy) are
// sampled from their owning components at snapshot time instead of being
// double-counted here.
type metrics struct {
	readsStarted   atomic.Int64
	readsCompleted atomic.Int64
	readsCancelled atomic.Int64 // client disconnected mid-stream
	readErrors     atomic.Int64

	admissionRejected atomic.Int64 // 429s: queue full or per-client limit
	admissionAborted  atomic.Int64 // client gave up while queued

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	gopsDecoded atomic.Int64 // aggregated ReadStats across served reads
	bytesRead   atomic.Int64 // stored bytes touched by served reads
	bytesSent   atomic.Int64 // payload bytes written to clients

	flushes        atomic.Int64 // socket write/flush cycles on the read path
	flushCoalesced atomic.Int64 // chunks that rode a later flush instead of their own
	ttfb           obs.Hist     // request arrival → first committed body byte

	writes      atomic.Int64
	gopsWritten atomic.Int64

	// Predicate-read (where=) counters, aggregated core.QueryStats.
	queriesStarted      atomic.Int64
	queriesCompleted    atomic.Int64
	queryGOPsConsidered atomic.Int64
	queryGOPsSkipped    atomic.Int64
	queryGOPsDecoded    atomic.Int64
	queryFramesScanned  atomic.Int64
	queryFramesMatched  atomic.Int64
}

// ReadMetrics is the reads section of a metrics snapshot.
type ReadMetrics struct {
	Started   int64 `json:"started"`
	Completed int64 `json:"completed"`
	Cancelled int64 `json:"cancelled"`
	Errors    int64 `json:"errors"`
	InFlight  int64 `json:"in_flight"`
	// Aggregated core.ReadStats across every served read.
	GOPsDecoded int64 `json:"gops_decoded"`
	BytesRead   int64 `json:"bytes_read"`
	BytesSent   int64 `json:"bytes_sent"`
}

// AdmissionMetrics is the admission-controller section of a snapshot.
type AdmissionMetrics struct {
	MaxInFlight  int   `json:"max_in_flight"`
	MaxQueued    int   `json:"max_queued"`
	MaxPerClient int   `json:"max_per_client"`
	QueueDepth   int64 `json:"queue_depth"`
	Rejected     int64 `json:"rejected"`
	Aborted      int64 `json:"aborted"`
}

// CacheMetrics is the response-cache section of a snapshot.
type CacheMetrics struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
	Entries  int     `json:"entries"`
	Bytes    int64   `json:"bytes"`
	MaxBytes int64   `json:"max_bytes"`
}

// ResponseMetrics is the response-path section of a snapshot: the
// adaptive-flush chunk writer and its buffer pool.
type ResponseMetrics struct {
	// BytesWritten is every wire byte the read path produced (chunk
	// headers included) — the same counter as reads.bytes_sent, repeated
	// here so the response section is self-contained.
	BytesWritten int64 `json:"bytes_written"`
	// Flushes counts socket write/flush cycles; CoalescedChunks counts
	// chunks that were buffered into a later flush instead of paying for
	// their own. coalesced/(coalesced+flushes) ≈ how hard the adaptive
	// window is working.
	Flushes         int64 `json:"flushes"`
	CoalescedChunks int64 `json:"coalesced_chunks"`
	// Pool hit rate for the recycled response buffers; a miss allocates.
	PoolHits    int64   `json:"pool_hits"`
	PoolMisses  int64   `json:"pool_misses"`
	PoolHitRate float64 `json:"pool_hit_rate"`
	// Time-to-first-byte quantiles (request arrival, before admission
	// queueing, to the first committed body byte), from a power-of-two
	// histogram: exact to within 2x.
	TTFBP50Millis float64 `json:"ttfb_p50_ms"`
	TTFBP99Millis float64 `json:"ttfb_p99_ms"`
}

// WriteMetrics is the writes section of a snapshot.
type WriteMetrics struct {
	Writes      int64 `json:"writes"`
	GOPsWritten int64 `json:"gops_written"`
}

// PredicateMetrics is the predicate-reads (where=) section of a
// snapshot: how many GOPs the planner considered, how many the summary
// bounds pruned without decoding, and the exact-scan outcome.
type PredicateMetrics struct {
	Queries   int64 `json:"queries"`
	Completed int64 `json:"completed"`
	// GOPsConsidered counts candidate GOPs overlapping query intervals;
	// GOPsSkipped are those the per-GOP summary bounds pruned without a
	// fetch or decode; GOPsDecoded actually decoded.
	GOPsConsidered int64 `json:"gops_considered"`
	GOPsSkipped    int64 `json:"gops_skipped"`
	GOPsDecoded    int64 `json:"gops_decoded"`
	// FramesScanned/FramesMatched count exact per-frame predicate
	// evaluations and hits.
	FramesScanned int64 `json:"frames_scanned"`
	FramesMatched int64 `json:"frames_matched"`
	// SkipRate is skipped/considered; Selectivity is matched/scanned.
	SkipRate    float64 `json:"skip_rate"`
	Selectivity float64 `json:"selectivity"`
}

// VideoMetrics is one video's row in the store section of a snapshot.
type VideoMetrics struct {
	Bytes int64 `json:"bytes"`
	// DeferredLevel is the deferred-compression level the maintenance
	// controller would apply right now (0 = inactive).
	DeferredLevel int `json:"deferred_level"`
}

// MetricsSnapshot is the JSON document served by /metrics.
type MetricsSnapshot struct {
	Reads     ReadMetrics      `json:"reads"`
	Admission AdmissionMetrics `json:"admission"`
	Cache     CacheMetrics     `json:"cache"`
	Response  ResponseMetrics  `json:"response"`
	Writes    WriteMetrics     `json:"writes"`
	Predicate PredicateMetrics `json:"predicate"`
	// Pipeline is the per-stage read/write pipeline latency section:
	// count, total time, and p50/p99 per stage (admission wait, plan,
	// fetch, decode, encode, cache admit, flush), from the store's shared
	// power-of-two histograms. Every stage is always present, even at
	// count 0, so dashboards see a stable shape.
	Pipeline map[string]obs.StageStats `json:"pipeline"`
	Videos   map[string]VideoMetrics   `json:"videos"`
	// Storage is the backend section: which backend kind serves the
	// store plus its cumulative read/write byte and latency counters
	// (vss.BackendStats, sampled at snapshot time).
	Storage vss.BackendStats `json:"storage"`
	// Cluster is present only when the store's backend is a replicated
	// ring — sharded local roots (vssd -shards, any -replicas) or remote
	// vssd nodes (the vssrouterd daemon): per-member error counters and
	// demotion state, read failovers, write-repair journal depth, and
	// repair/scrub counters (vss.ClusterStats, sampled at snapshot
	// time).
	Cluster *vss.ClusterStats `json:"cluster,omitempty"`
}
