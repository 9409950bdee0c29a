package main

// The CLI's bridge to the v1 service layer: a store argument is a
// local store file, a sharded-dataset manifest, a cluster topology, or
// an http(s):// URL, resolved to the matching api.Backend — Local over
// an opened store file or dataset manifest, a cluster Coordinator over
// a topology file, the HTTP Client SDK otherwise. Subcommands written
// against api.Backend (query, inspect) work identically on
// all four.

import (
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/query"
	"repro/internal/shard"
)

// targetKind is what a store argument names; its text is the noun
// error messages use.
type targetKind string

const (
	kindURL      targetKind = "serving URL"
	kindTopology targetKind = "cluster topology"
	kindManifest targetKind = "dataset manifest"
	kindStore    targetKind = "store"
)

// isServiceURL reports whether a store argument names a serving URL
// rather than a local path.
func isServiceURL(arg string) bool {
	return strings.HasPrefix(arg, "http://") || strings.HasPrefix(arg, "https://")
}

// classify decides what arg names — the one place the CLI sniffs. A
// path that is neither topology nor manifest JSON (including one that
// does not exist yet) is a store.
func classify(arg string) targetKind {
	switch {
	case isServiceURL(arg):
		return kindURL
	case cluster.IsTopology(arg):
		return kindTopology
	case shard.IsManifest(arg):
		return kindManifest
	}
	return kindStore
}

// open classifies arg and opens the matching read Backend. The
// returned closer releases whatever the backend holds (the store or
// shard file handles, the coordinator's prober; nothing for the HTTP
// client). timeout bounds each attempt of the remote kinds.
func open(arg string, opts query.Options, timeout time.Duration) (targetKind, api.Backend, func() error, error) {
	kind := classify(arg)
	switch kind {
	case kindURL:
		c, err := api.NewClient(arg, api.ClientOptions{Timeout: timeout})
		if err != nil {
			return kind, nil, nil, err
		}
		return kind, c, func() error { return nil }, nil
	case kindTopology:
		co, err := cluster.Open(arg, cluster.Options{ClientTimeout: timeout})
		if err != nil {
			return kind, nil, nil, err
		}
		return kind, co, co.Close, nil
	}
	openFile := api.OpenLocal
	if kind == kindManifest {
		openFile = api.OpenSharded
	}
	l, err := openFile(arg, opts)
	if err != nil {
		return kind, nil, nil, err
	}
	return kind, l, l.Close, nil
}
