package cluster

import "repro/internal/obs"

// Registry families for the distributed query tier.
var (
	clusterQueries = obs.NewCounter("goblaz_cluster_queries_total",
		"Queries answered by the cluster coordinator.")
	clusterParts = obs.NewCounter("goblaz_cluster_parts_total",
		"Per-shard sub-queries dispatched over the wire by a coordinator scatter.")
	clusterScatterSeconds = obs.NewHistogram("goblaz_cluster_scatter_seconds",
		"Per-shard sub-query latency inside a coordinator scatter, failover included.", nil)
	clusterFailovers = obs.NewCounter("goblaz_cluster_failover_total",
		"Shard calls that abandoned a replica and moved on to the next one.")
	clusterProbes = obs.NewCounterVec("goblaz_cluster_probes_total",
		"Background endpoint health probes by outcome.", "result")
	clusterEndpointUp = obs.NewGaugeVec("goblaz_cluster_endpoint_up",
		"Per-endpoint health: 1 while the endpoint is up, 0 while it is cooling down (from a failure until its next success).", "endpoint")
	clusterRemoteFrames = obs.NewCounter("goblaz_cluster_remote_frames_total",
		"Compressed payloads fetched over the wire for cross-shard metric evaluation.")
	clusterRemoteBytes = obs.NewCounter("goblaz_cluster_remote_bytes_total",
		"Payload bytes fetched over the wire for cross-shard metric evaluation.")
)
