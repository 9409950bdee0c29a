// Package cluster is the distributed query tier: it turns N shard
// servers — each a plain `goblaz serve` over its slice of a dataset —
// into one logical dataset over the wire. A Topology file names the
// shards and their replica endpoints; a Coordinator loads it, discovers
// every shard's frame inventory (which is where each label lives)
// through the v1 HTTP SDK, and implements api.Backend by scatter-gathering
// queries to the shards' api.Client transports concurrently, on at
// most GOMAXPROCS goroutines the query starts and waits for.
//
// The merge rules are the same ones internal/shard uses in process:
// per-frame results concatenate in global (topology) order with indices
// remapped, and dataset-level reductions fold through the exact
// query.Moments state — which is why a remote dataset passes the same
// conformance and differential tests as a local one. A metric request
// whose frames all live on one shard scatters like any other request, as
// one part. Metric requests that couple frames across shards (pairwise
// metrics, a reference frame on another shard) cannot run on any single
// shard; the coordinator fetches the frames' stored payloads, checked
// against the CRCs discovery recorded, and runs the whole request on a
// query.Engine over them, so its answers — metric, aggregates and
// reduction alike — are bit-identical to a single store's. Only a
// reduction scattered over several shards folds per shard, an ulp from
// a single store's at most.
//
// Replicas make the tier degradable: each shard lists one or more
// interchangeable endpoints, and an endpoint is either up or cooling
// down. A failed call starts its endpoint's cooldown and fails over to
// the next replica (goblaz_cluster_failover_total); calls try up
// endpoints first, then cooled-down ones, then those still cooling.
// Background probes of /readyz (falling back to /healthz) restore an
// endpoint that answers and restart the cooldown of one that does not.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"time"

	"repro/internal/query"
)

// TopologyVersion is the topology file format version this package
// reads and writes.
const TopologyVersion = 1

// PlacementContiguous names shard.WriteDatasetAssigned's order-preserving
// split, the only placement a topology may declare. The coordinator
// routes by the inventory it discovers, not by the declared placement.
const PlacementContiguous = "contiguous"

// Duration is a time.Duration that reads naturally in a topology file:
// it unmarshals from a Go duration string ("2s", "150ms") or a number
// of nanoseconds, and marshals back to the string form.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("cluster: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

// ShardSpec is one shard of the topology: a stable name and the
// replica endpoints that serve it. Every replica holds the same store
// slice; the coordinator treats them as interchangeable and fails over
// between them. An endpoint is a base URL the v1 SDK accepts — a bare
// server URL serves its default /v1 mount, a mount URL
// ("http://host/v1/datasets/runs") a named one.
type ShardSpec struct {
	Name     string   `json:"name"`
	Replicas []string `json:"replicas"`
}

// ProbeConfig tunes the background health probes and the cooldown of
// a failed endpoint. Zero values take the defaults documented per
// field.
type ProbeConfig struct {
	// Interval is how often every endpoint is probed (default 2s).
	Interval Duration `json:"interval,omitempty"`
	// Cooldown is how long a failed endpoint sits out before a request
	// may try it again (default 5s).
	Cooldown Duration `json:"cooldown,omitempty"`
	// DownAfter has no effect. It is still parsed, so topology files
	// that set it keep loading.
	DownAfter int `json:"downAfter,omitempty"`
}

func (p ProbeConfig) interval() time.Duration {
	if p.Interval > 0 {
		return time.Duration(p.Interval)
	}
	return 2 * time.Second
}

func (p ProbeConfig) cooldown() time.Duration {
	if p.Cooldown > 0 {
		return time.Duration(p.Cooldown)
	}
	return 5 * time.Second
}

// ClientConfig tunes the per-shard api.Client transports. Zero values
// take the SDK defaults (2 retries, 100ms doubling backoff, no
// per-attempt timeout); Retries < 0 disables retries.
type ClientConfig struct {
	Timeout Duration `json:"timeout,omitempty"`
	Retries int      `json:"retries,omitempty"`
	Backoff Duration `json:"backoff,omitempty"`
}

// Topology is the on-disk description of a distributed dataset: which
// shard servers hold it and how to reach them. The coordinator
// discovers the frame inventory from the shards themselves, so the
// file stays small and never drifts from the data.
type Topology struct {
	Version int `json:"version"`
	// Dataset names the logical dataset; `goblaz serve -topology`
	// mounts the coordinator under /v1/datasets/{Dataset} when no
	// explicit mount name is given.
	Dataset string `json:"dataset,omitempty"`
	// Placement is empty or "contiguous"; see PlacementContiguous.
	Placement string `json:"placement,omitempty"`
	// Shards lists the shard servers in global frame order.
	Shards []ShardSpec  `json:"shards"`
	Probe  ProbeConfig  `json:"probe,omitempty"`
	Client ClientConfig `json:"client,omitempty"`
}

// Validate checks the topology's internal consistency.
func (t *Topology) Validate() error {
	if t.Version != TopologyVersion {
		return fmt.Errorf("cluster: unsupported topology version %d (have %d)", t.Version, TopologyVersion)
	}
	if len(t.Shards) == 0 {
		return fmt.Errorf("cluster: topology lists no shards")
	}
	if t.Placement != "" && t.Placement != PlacementContiguous {
		return fmt.Errorf("cluster: placement %q not supported: the coordinator discovers which shard holds each label (have %q)",
			t.Placement, PlacementContiguous)
	}
	names := map[string]bool{}
	for s, sh := range t.Shards {
		if sh.Name == "" {
			return fmt.Errorf("cluster: shard %d has no name", s)
		}
		if names[sh.Name] {
			return fmt.Errorf("cluster: duplicate shard name %q", sh.Name)
		}
		names[sh.Name] = true
		if len(sh.Replicas) == 0 {
			return fmt.Errorf("cluster: shard %q lists no replicas", sh.Name)
		}
		seen := map[string]bool{}
		for _, ep := range sh.Replicas {
			u, err := url.Parse(ep)
			if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
				return fmt.Errorf("cluster: shard %q replica %q is not an http(s) URL", sh.Name, ep)
			}
			if seen[ep] {
				return fmt.Errorf("cluster: shard %q lists replica %q twice", sh.Name, ep)
			}
			seen[ep] = true
		}
	}
	return nil
}

// LoadTopology reads and validates a topology file.
func LoadTopology(path string) (*Topology, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t := &Topology{}
	if err := query.DecodeJSON(bytes.NewReader(blob), t); err != nil {
		return nil, fmt.Errorf("cluster: bad topology %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return t, nil
}

// Write validates and writes the topology as indented JSON.
func (t *Topology) Write(path string) error {
	if err := t.Validate(); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// IsTopology sniffs whether the file at path is a cluster topology.
// The discriminator against a shard manifest (also JSON with a
// "shards" list) is the entries' shape: topology shards carry replica
// URL lists, manifest shards carry store file paths. It reports false
// for unreadable files, leaving the error to whichever open path the
// caller picks.
func IsTopology(path string) bool {
	blob, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var probe struct {
		Shards []struct {
			Replicas []string `json:"replicas"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(blob, &probe); err != nil {
		return false
	}
	return len(probe.Shards) > 0 && len(probe.Shards[0].Replicas) > 0
}
