package query

import "repro/internal/obs"

// Registry families for the query layer. The cache counters are the
// only record of cache hits, misses and coalesced waits: they count
// every Cache in the process together.
var (
	cacheHits = obs.NewCounter("goblaz_query_cache_hits_total",
		"Decoded-frame cache hits.")
	cacheMisses = obs.NewCounter("goblaz_query_cache_misses_total",
		"Decoded-frame cache misses.")
	cacheCoalesced = obs.NewCounter("goblaz_query_cache_coalesced_total",
		"Cache misses that waited on another caller's in-flight decode instead of decoding.")
	cacheEvictions = obs.NewCounter("goblaz_query_cache_evictions_total",
		"Decoded frames evicted from the cache.")
	cacheEvictedBytes = obs.NewCounter("goblaz_query_cache_evicted_bytes_total",
		"Decoded bytes evicted from the cache.")
	cacheUsedBytes = obs.NewGauge("goblaz_query_cache_used_bytes",
		"Decoded bytes currently resident, summed over every cache in the process.")

	queryFramesVec = obs.NewCounterVec("goblaz_query_frames_total",
		"Frames answered by query execution, by execution space.", "space")
	queryRequestsVec = obs.NewCounterVec("goblaz_query_requests_total",
		"Query executions, by execution space (fallback = at least one frame decoded fully).", "space")

	framesCompressed   = queryFramesVec.With("compressed")
	framesFallback     = queryFramesVec.With("fallback")
	requestsCompressed = queryRequestsVec.With("compressed")
	requestsFallback   = queryRequestsVec.With("fallback")
)
