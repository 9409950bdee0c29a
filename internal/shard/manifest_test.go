package shard

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

const testManifest = `{"version":2,"spec":"goblaz","shards":[` +
	`{"path":"a.gbz","frames":2,"labels":[0,1],"crc32":"0badf00d"},` +
	`{"path":"b.gbz","frames":1,"labels":[7],"specs":["goblaz","zfp:rate=16"]}]}`

func TestLoadManifestRejectsTrailingData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.json")
	for blob, ok := range map[string]bool{
		testManifest:                               true,
		testManifest + "\n\t ":                     true,
		testManifest + `{"version":1}`:             false,
		testManifest + " x":                        false,
		testManifest[:len(testManifest)-1] + `}}}`: false,
	} {
		if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadManifest(path); (err == nil) != ok {
			t.Errorf("LoadManifest(%q) = %v, want ok=%v", blob, err, ok)
		}
	}
}

// FuzzLoadManifest: LoadManifest never panics, and a manifest it
// accepts, written back through Write, reloads to an equal value. An
// empty per-shard spec list writes as no list, so it compares as none.
func FuzzLoadManifest(f *testing.F) {
	f.Add([]byte(testManifest))
	f.Add([]byte(testManifest + "\n"))
	f.Add([]byte(testManifest + `{"version":1}`))
	f.Add([]byte(testManifest + " x"))
	f.Add([]byte(`{"version":1,"spec":"zfp:rate=16","shards":[{"path":"s","frames":0,"labels":null,"specs":[]}]}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(path)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.json")
		if err := m.Write(out); err != nil {
			t.Fatalf("accepted manifest does not write: %v", err)
		}
		back, err := LoadManifest(out)
		if err != nil {
			t.Fatalf("written manifest does not reload: %v", err)
		}
		for i := range m.Shards {
			if len(m.Shards[i].Specs) == 0 {
				m.Shards[i].Specs = nil
			}
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("round trip changed the manifest:\n%+v\n%+v", m, back)
		}
	})
}
