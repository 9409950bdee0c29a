// Package shard scales the frame store horizontally: a Dataset is N
// store files described by a JSON manifest, presented as one logical
// frame collection. Frames keep a stable global order — the
// concatenation of the shards in manifest order — and a global label
// index, so a dataset answers every question a single store does.
//
// Queries run on one query.Engine over the dataset's concatenated view
// (query.Source): it fans per-frame work out across every shard's frames
// and folds reductions in global frame order, so every answer — pairwise
// metrics and references in another shard included — is bit-identical
// to a single store's by construction.
package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/query"
	"repro/internal/store"
)

// The manifest format versions. Version 1 describes codec-uniform
// datasets; version 2 adds per-shard codec spec lists for mixed-codec
// shards (store format v2 with per-frame specs). Loaders accept both;
// writers emit 1 unless a shard is mixed, so uniform datasets stay
// readable by older tooling.
const (
	ManifestVersion  = 1
	ManifestVersion2 = 2
)

// ShardInfo describes one shard of a dataset.
type ShardInfo struct {
	// Path locates the shard's store file, relative to the manifest.
	Path string `json:"path"`
	// Frames is the shard's frame count.
	Frames int `json:"frames"`
	// Labels lists the shard's frame labels in commit order — the
	// router's index for skipping shards a label glob cannot match.
	Labels []int `json:"labels"`
	// CRC32 is the shard store's footer CRC (hex) — a fingerprint of
	// its whole frame inventory. When present, Open rejects a shard
	// file that does not match, so a dataset assembled from a mix of
	// old and new shard files (an interrupted repack) cannot silently
	// serve wrong frames.
	CRC32 string `json:"crc32,omitempty"`
	// Specs lists every codec spec the shard's store uses — the dataset
	// default first, then the store's interned extras in id order.
	// Present only for mixed-codec shards (manifest version 2); Open
	// verifies it against the store's own spec table. Which frame uses
	// which spec lives in the store footer, not here.
	Specs []string `json:"specs,omitempty"`
}

// Manifest is the on-disk description of a sharded dataset: the codec
// spec shared by every shard plus the shard list in global frame order.
type Manifest struct {
	Version int         `json:"version"`
	Spec    string      `json:"spec"`
	Shards  []ShardInfo `json:"shards"`
}

// Validate checks the manifest's internal consistency: version, spec,
// per-shard frame counts matching label lists, and globally unique
// labels.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion && m.Version != ManifestVersion2 {
		return fmt.Errorf("shard: unsupported manifest version %d (have %d and %d)",
			m.Version, ManifestVersion, ManifestVersion2)
	}
	if m.Spec == "" {
		return fmt.Errorf("shard: manifest has no codec spec")
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard: manifest lists no shards")
	}
	seen := map[int]int{}
	for s, sh := range m.Shards {
		if sh.Path == "" {
			return fmt.Errorf("shard: shard %d has no path", s)
		}
		if sh.Frames != len(sh.Labels) {
			return fmt.Errorf("shard: shard %d (%s) claims %d frames but lists %d labels",
				s, sh.Path, sh.Frames, len(sh.Labels))
		}
		for _, label := range sh.Labels {
			if prev, dup := seen[label]; dup {
				return fmt.Errorf("shard: label %d appears in shards %d and %d", label, prev, s)
			}
			seen[label] = s
		}
		if len(sh.Specs) > 0 {
			if m.Version < ManifestVersion2 {
				return fmt.Errorf("shard: shard %d (%s) lists codec specs but manifest version is %d (need %d)",
					s, sh.Path, m.Version, ManifestVersion2)
			}
			if sh.Specs[0] != m.Spec {
				return fmt.Errorf("shard: shard %d (%s) lists default spec %q, manifest says %q",
					s, sh.Path, sh.Specs[0], m.Spec)
			}
		}
	}
	return nil
}

// Len returns the dataset's total frame count.
func (m *Manifest) Len() int {
	n := 0
	for _, sh := range m.Shards {
		n += sh.Frames
	}
	return n
}

// LoadManifest reads and validates a manifest file. Shard paths stay
// relative; Open resolves them against the manifest's directory.
func LoadManifest(path string) (*Manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := query.DecodeJSON(bytes.NewReader(blob), m); err != nil {
		return nil, fmt.Errorf("shard: bad manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return m, nil
}

// Write validates and writes the manifest as indented JSON, via a temp
// file and rename so a failure mid-write cannot truncate a previously
// valid manifest. The temp file is fsynced before the rename and the
// parent directory after it: a rename alone is only durable once the
// directory entry is, so without the directory sync a crash shortly
// after Write returned could lose the manifest entirely.
func (m *Manifest) Write(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), ".goblaz-manifest-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(append(blob, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return store.FsyncDir(filepath.Dir(path))
}

// IsManifest sniffs whether the file at path is a dataset manifest
// rather than a store file (which starts with the "GBZS" magic) or
// some other JSON document — a cluster topology also starts with '{',
// so the probe checks the manifest's distinguishing shape: a codec
// spec plus shard entries that point at store files. It reports false
// for unreadable or empty files, leaving the error to whichever open
// path the caller picks.
func IsManifest(path string) bool {
	blob, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var probe struct {
		Spec   string `json:"spec"`
		Shards []struct {
			Path string `json:"path"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(blob, &probe); err != nil {
		return false
	}
	return probe.Spec != "" && len(probe.Shards) > 0 && probe.Shards[0].Path != ""
}
